/* CPU affinity of the calling thread, for Host.allowed_cpus and
   Host.set_cpus, and Host.die_with_parent.  Elsewhere than Linux the
   first two report that affinity is not available (no CPUs listed,
   pinning refused) and the last does nothing. */

#define _GNU_SOURCE
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#ifdef __linux__
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#endif

value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(result);
#ifdef __linux__
  cpu_set_t set;
  int n = 0, k = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) CAMLreturn(Atom(0));
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set)) n++;
  if (n == 0) CAMLreturn(Atom(0));
  result = caml_alloc_tuple(n);
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set)) Store_field(result, k++, Val_int(c));
  CAMLreturn(result);
#else
  CAMLreturn(Atom(0));
#endif
}

value perfbench_set_cpus(value cpus)
{
  CAMLparam1(cpus);
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  for (mlsize_t i = 0; i < Wosize_val(cpus); i++) {
    int c = Int_val(Field(cpus, i));
    if (c < 0 || c >= CPU_SETSIZE) CAMLreturn(Val_false);
    CPU_SET(c, &set);
  }
  CAMLreturn(Val_bool(Wosize_val(cpus) > 0 && sched_setaffinity(0, sizeof(set), &set) == 0));
#else
  CAMLreturn(Val_false);
#endif
}

value perfbench_die_with_parent(value unit)
{
  CAMLparam1(unit);
#ifdef __linux__
  prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  CAMLreturn(Val_unit);
}
