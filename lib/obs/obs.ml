(* Unified observability: an atomic metric registry, per-domain span
   buffers with Chrome-trace/JSONL exporters, and a snapshot that also
   folds in external statistics sources (interning tables, memo caches,
   the domain pool).

   Disabled-path discipline: the only cost a dormant instrument may
   impose on a hot path is one atomic load ([enabled ()]) — no clock
   read, no allocation of events.  Counters and gauges stay live even
   when disabled (one atomic RMW, the same price the kernel cache
   counters already pay); everything that needs a clock or a buffer is
   gated.  Nothing here feeds back into scheduling, so enabling
   telemetry cannot change any user-visible output. *)

type value = Int of int | Float of float | Bool of bool | String of string

(* ---- enabled flag ----------------------------------------------------- *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let () =
  match Sys.getenv_opt "CSP_OBS" with
  | Some ("1" | "true" | "on") -> set_enabled true
  | _ -> ()

(* ---- clock ------------------------------------------------------------ *)

let now_ns () = Unix.gettimeofday () *. 1e9

(* Every timestamp is reported relative to this origin, so traces from
   one process line up regardless of when telemetry was switched on. *)
let origin_ns = now_ns ()

(* ---- metric registry -------------------------------------------------- *)

type timer = {
  t_count : int Atomic.t;
  t_total_ns : int Atomic.t;
  t_max_ns : int Atomic.t;
  t_buckets : int Atomic.t array; (* log2(ns) histogram *)
}

type metric =
  | M_counter of int Atomic.t
  | M_gauge of float Atomic.t
  | M_timer of timer

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  match f () with
  | v ->
    Mutex.unlock registry_mutex;
    v
  | exception e ->
    Mutex.unlock registry_mutex;
    raise e

(* Find-or-create: the same name always maps to the same instrument,
   whichever module asked first.  A name reused at a different metric
   kind is a programming error worth failing loudly on. *)
let intern_metric name build describe =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
        match describe m with
        | Some v -> v
        | None -> invalid_arg ("Obs: metric " ^ name ^ " registered with another kind"))
      | None ->
        let m, v = build () in
        Hashtbl.add registry name m;
        v)

module Counter = struct
  type t = int Atomic.t

  let make name =
    intern_metric name
      (fun () ->
        let a = Atomic.make 0 in
        (M_counter a, a))
      (function M_counter a -> Some a | _ -> None)

  let incr = Atomic.incr
  let add t n = ignore (Atomic.fetch_and_add t n)
  let get = Atomic.get
end

module Gauge = struct
  type t = float Atomic.t

  let make name =
    intern_metric name
      (fun () ->
        let a = Atomic.make 0.0 in
        (M_gauge a, a))
      (function M_gauge a -> Some a | _ -> None)

  let set = Atomic.set
  let get = Atomic.get
end

module Timer = struct
  type t = timer

  let n_buckets = 48

  let make name =
    intern_metric name
      (fun () ->
        let t =
          {
            t_count = Atomic.make 0;
            t_total_ns = Atomic.make 0;
            t_max_ns = Atomic.make 0;
            t_buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
          }
        in
        (M_timer t, t))
      (function M_timer t -> Some t | _ -> None)

  let bucket_of_ns ns =
    let ns = max 1 ns in
    let rec log2 acc n = if n <= 1 then acc else log2 (acc + 1) (n lsr 1) in
    min (n_buckets - 1) (log2 0 ns)

  let rec atomic_max a v =
    let cur = Atomic.get a in
    if v <= cur then ()
    else if Atomic.compare_and_set a cur v then ()
    else atomic_max a v

  let observe_ns t ns =
    let ns = if Float.is_finite ns && ns > 0.0 then int_of_float ns else 0 in
    Atomic.incr t.t_count;
    ignore (Atomic.fetch_and_add t.t_total_ns ns);
    atomic_max t.t_max_ns ns;
    Atomic.incr t.t_buckets.(bucket_of_ns ns)

  let time t f =
    if not (Atomic.get enabled_flag) then f ()
    else begin
      let t0 = now_ns () in
      Fun.protect ~finally:(fun () -> observe_ns t (now_ns () -. t0)) f
    end

  let count t = Atomic.get t.t_count
  let total_ns t = float_of_int (Atomic.get t.t_total_ns)
  let max_ns t = float_of_int (Atomic.get t.t_max_ns)
  let buckets t = Array.map Atomic.get t.t_buckets
end

(* ---- spans ------------------------------------------------------------ *)

type event = {
  name : string;
  cat : string;
  ts_ns : float;
  dur_ns : float;
  tid : int;
  depth : int;
  args : (string * value) list;
}

let dropped_events = Counter.make "obs.dropped_events"
let max_events_per_domain = 1_000_000

(* One buffer per domain: only the owning domain appends, so no lock is
   needed on the record path; the global list of buffers is guarded for
   registration only.  Readers ([events]) run while the process is
   quiescent (the CLI exports after the command body returns). *)
type dbuf = {
  tid : int;
  mutable evs : event list;
  mutable n : int;
  mutable stack_depth : int;
}

let all_bufs : dbuf list ref = ref []
let bufs_mutex = Mutex.create ()

let dls_buf : dbuf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        { tid = (Domain.self () :> int); evs = []; n = 0; stack_depth = 0 }
      in
      Mutex.lock bufs_mutex;
      all_bufs := b :: !all_bufs;
      Mutex.unlock bufs_mutex;
      b)

let record b ev =
  if b.n >= max_events_per_domain then Counter.incr dropped_events
  else begin
    b.evs <- ev :: b.evs;
    b.n <- b.n + 1
  end

let no_args () = []

let span ?(cat = "") ?(args = no_args) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let b = Domain.DLS.get dls_buf in
    let depth = b.stack_depth in
    b.stack_depth <- depth + 1;
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now_ns () in
        b.stack_depth <- depth;
        record b
          {
            name;
            cat;
            ts_ns = t0 -. origin_ns;
            dur_ns = t1 -. t0;
            tid = b.tid;
            depth;
            args = args ();
          })
      f
  end

let span_depth () = (Domain.DLS.get dls_buf).stack_depth
let set_span_depth d = (Domain.DLS.get dls_buf).stack_depth <- d

let event_compare a b =
  let c = Float.compare a.ts_ns b.ts_ns in
  if c <> 0 then c
  else
    let c = Int.compare a.tid b.tid in
    if c <> 0 then c else String.compare a.name b.name

let events () =
  Mutex.lock bufs_mutex;
  let bufs = !all_bufs in
  Mutex.unlock bufs_mutex;
  List.sort event_compare (List.concat_map (fun b -> b.evs) bufs)

let event_count () =
  Mutex.lock bufs_mutex;
  let bufs = !all_bufs in
  Mutex.unlock bufs_mutex;
  List.fold_left (fun n b -> n + b.n) 0 bufs

let clear_events () =
  Mutex.lock bufs_mutex;
  let bufs = !all_bufs in
  Mutex.unlock bufs_mutex;
  List.iter
    (fun b ->
      b.evs <- [];
      b.n <- 0)
    bufs

(* ---- snapshot --------------------------------------------------------- *)

let sources : (string * (unit -> (string * value) list)) list ref = ref []

let register_source prefix f =
  with_registry (fun () ->
      sources := (prefix, f) :: List.remove_assoc prefix !sources)

let ms_of_ns ns = ns /. 1e6

let metric_rows name = function
  | M_counter a -> [ (name, Int (Atomic.get a)) ]
  | M_gauge a -> [ (name, Float (Atomic.get a)) ]
  | M_timer t ->
    let count = Timer.count t and total = Timer.total_ns t in
    [
      (name ^ ".count", Int count);
      (name ^ ".total_ms", Float (ms_of_ns total));
      ( name ^ ".mean_ms",
        Float (if count = 0 then 0.0 else ms_of_ns (total /. float_of_int count)) );
      (name ^ ".max_ms", Float (ms_of_ns (Timer.max_ns t)));
    ]

let snapshot () =
  let metrics, srcs =
    with_registry (fun () ->
        (Hashtbl.fold (fun k m acc -> (k, m) :: acc) registry [], !sources))
  in
  let rows =
    List.concat_map (fun (k, m) -> metric_rows k m) metrics
    @ List.concat_map
        (fun (prefix, f) ->
          List.map (fun (k, v) -> (prefix ^ "." ^ k, v)) (f ()))
        srcs
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) rows

(* Concurrent delta probes would attribute one job's counter movement
   to another, so probes serialise on one mutex: each diff is exact.
   A probe nested in another on the same domain (a bench leg around a
   coverage-guided campaign) already runs inside the outer one's
   critical section and does not lock again.  Counters are always live
   (an increment is one atomic RMW), so the deltas are meaningful even
   while telemetry is disabled. *)
let delta_mutex = Mutex.create ()
let delta_owner = Atomic.make (-1)  (* the domain holding [delta_mutex] *)

let delta_snapshot f =
  let me = (Domain.self () :> int) in
  let outer = Atomic.get delta_owner <> me in
  if outer then begin
    Mutex.lock delta_mutex;
    Atomic.set delta_owner me
  end;
  Fun.protect
    ~finally:(fun () ->
      if outer then begin
        Atomic.set delta_owner (-1);
        Mutex.unlock delta_mutex
      end)
  @@ fun () ->
  let before = snapshot () in
  let x = f () in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (k, v) -> match v with Int n -> Hashtbl.replace tbl k n | _ -> ())
    before;
  let deltas =
    List.filter_map
      (fun (k, v) ->
        match v with
        | Int n ->
          let d = n - Option.value ~default:0 (Hashtbl.find_opt tbl k) in
          if d > 0 then Some (k, d) else None
        | _ -> None)
      (snapshot ())
  in
  (x, deltas)

(* Timer histograms are not part of [snapshot] (48 buckets per timer
   would swamp the key space); coverage tooling reads them separately
   and treats each occupied bucket as one feature. *)
let timer_buckets () =
  with_registry (fun () ->
      Hashtbl.fold
        (fun k m acc ->
          match m with
          | M_timer t -> (k, Array.map Atomic.get t.t_buckets) :: acc
          | M_counter _ | M_gauge _ -> acc)
        registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () =
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | M_counter a -> Atomic.set a 0
          | M_gauge a -> Atomic.set a 0.0
          | M_timer t ->
            Atomic.set t.t_count 0;
            Atomic.set t.t_total_ns 0;
            Atomic.set t.t_max_ns 0;
            Array.iter (fun b -> Atomic.set b 0) t.t_buckets)
        registry)

(* ---- rendering -------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if not (Float.is_finite f) then "0"
  else
    (* %.17g round-trips; trim the common integral case for legibility *)
    let s = Printf.sprintf "%.6f" f in
    s

let string_of_value = function
  | Int i -> string_of_int i
  | Float f -> json_float f
  | Bool b -> string_of_bool b
  | String s -> "\"" ^ json_escape s ^ "\""

let pp_snapshot ppf () =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "%s = %s" k (string_of_value v))
    (snapshot ());
  Format.fprintf ppf "@]"

let snapshot_json () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf "\"%s\": %s" (json_escape k) (string_of_value v)))
    (snapshot ());
  Buffer.add_string buf "}";
  Buffer.contents buf

let args_json args =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf "\"%s\": %s" (json_escape k) (string_of_value v)))
    args;
  Buffer.add_string buf "}";
  Buffer.contents buf

let chrome_trace () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %s, \
            \"dur\": %s, \"pid\": 1, \"tid\": %d, \"args\": %s}"
           (json_escape e.name) (json_escape e.cat)
           (json_float (e.ts_ns /. 1e3))
           (json_float (e.dur_ns /. 1e3))
           e.tid
           (args_json (("depth", Int e.depth) :: e.args))))
    (events ());
  Buffer.add_string buf "\n], \"displayTimeUnit\": \"ms\"}\n";
  Buffer.contents buf

let events_jsonl () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\": \"%s\", \"cat\": \"%s\", \"ts_ns\": %s, \"dur_ns\": \
            %s, \"tid\": %d, \"depth\": %d, \"args\": %s}\n"
           (json_escape e.name) (json_escape e.cat) (json_float e.ts_ns)
           (json_float e.dur_ns) e.tid e.depth (args_json e.args)))
    (events ());
  Buffer.contents buf
