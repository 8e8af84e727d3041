// Main-thread wall-clock sampler, preloaded into a program:
//
//   gcc -O2 -shared -fPIC -o mtprof.so mtprof.c
//   MTPROF_OUT=samples.txt LD_PRELOAD=$PWD/mtprof.so ./program args...
//   python3 report.py samples.txt
//
// Every 0.2 ms of wall-clock time (CLOCK_MONOTONIC, so waits count as
// well as work) a POSIX timer sends SIGPROF to the thread that loaded
// the library, the program's main thread, and the handler records that
// thread's program counter. At exit the library writes the executable
// mappings of /proc/self/maps ("map " lines), then one hex PC per line.
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 21)

static unsigned long pcs[MAX_SAMPLES];
static volatile unsigned long count;
static timer_t timer;

static void on_prof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = context;
  if (count < MAX_SAMPLES) {
    pcs[count++] = (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
  }
}

__attribute__((constructor)) static void start(void) {
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct sigevent ev;
  memset(&ev, 0, sizeof ev);
  ev.sigev_notify = SIGEV_THREAD_ID;
  ev.sigev_signo = SIGPROF;
  ev._sigev_un._tid = (pid_t)syscall(SYS_gettid);
  const struct itimerspec every = {{0, 200000}, {0, 200000}};
  if (timer_create(CLOCK_MONOTONIC, &ev, &timer) != 0 ||
      timer_settime(timer, 0, &every, NULL) != 0) {
    perror("mtprof: timer");
  }
}

__attribute__((destructor)) static void stop(void) {
  timer_delete(timer);
  const char* path = getenv("MTPROF_OUT");
  FILE* out = fopen(path != NULL ? path : "mtprof.txt", "w");
  FILE* maps = fopen("/proc/self/maps", "r");
  if (out == NULL || maps == NULL) {
    perror("mtprof: output");
    return;
  }
  char line[4096];
  while (fgets(line, sizeof line, maps) != NULL) {
    if (strstr(line, " r-xp ") != NULL) {
      fprintf(out, "map %s", line);
    }
  }
  fclose(maps);
  for (unsigned long i = 0; i < count; ++i) {
    fprintf(out, "%lx\n", pcs[i]);
  }
  fclose(out);
}
