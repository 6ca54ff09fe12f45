/* System calls the OCaml Unix library does not expose: a monotonic
   clock, wait4 (which reports the peak resident set of the child it
   reaps) and CPU affinity. */

#define _GNU_SOURCE
#include <errno.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

double bench_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value bench_now_byte(value unit)
{
  return caml_copy_double(bench_now(unit));
}

/* wait4(pid) -> (status, peak RSS in KiB).  status is the exit code,
   or -(signal number) for a killed child, or -1000 when wait4 fails. */
value bench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0, code;
  struct rusage ru;
  pid_t pid = Int_val(vpid), r;

  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();

  if (r < 0)
    code = -1000;
  else if (WIFEXITED(status))
    code = WEXITSTATUS(status);
  else if (WIFSIGNALED(status))
    code = -WTERMSIG(status);
  else
    code = -1000;
  res = caml_alloc_tuple(2);
  Store_field(res, 0, Val_int(code));
  Store_field(res, 1, Val_long(r < 0 ? 0 : ru.ru_maxrss));
  CAMLreturn(res);
}

/* Restrict this process (and the children it will start) to the
   highest-numbered CPU it may run on.  Returns that CPU, or -1. */
value bench_pin_last_cpu(value unit)
{
  cpu_set_t set;
  int cpu, last = -1;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    return Val_int(-1);
  for (cpu = 0; cpu < CPU_SETSIZE; cpu++)
    if (CPU_ISSET(cpu, &set))
      last = cpu;
  if (last < 0)
    return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    return Val_int(-1);
  return Val_int(last);
}
