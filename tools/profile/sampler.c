/*
 * A SIGPROF stack sampler, loaded with LD_PRELOAD.
 *
 *   gcc -O2 -shared -fPIC -o sampler.so sampler.c
 *   PROFILE_OUT=run.prof LD_PRELOAD=./sampler.so <program> [args]
 *
 * Every 1/SAMPLE_HZ seconds of process CPU time (the kernel's tick rate
 * caps it, often at 250 or 300 a second) the kernel delivers SIGPROF;
 * the handler records the interrupted pc and
 * then walks the frame-pointer chain, one return address per frame, for
 * as long as the frame pointer stays inside the main thread's stack
 * (bounds taken once at load) and climbs. Samples that land on another
 * thread are dropped. The program must be built with frame pointers
 * (`-C force-frame-pointers=yes`); a leaf in code without them (libc,
 * the precompiled parts of std) loses its direct caller but keeps the
 * rest of the stack.
 *
 * At exit the file PROFILE_OUT (default "profile.out") gets the process
 * maps, then one line per sample: the pc followed by the return
 * addresses, innermost first, in hex. report.py symbolises it.
 */
#define _GNU_SOURCE
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

/* Above any common kernel tick rate, so the tick sets the real rate. */
#define SAMPLE_HZ 1000
#define MAX_DEPTH 256
/* Words of sample storage: a sample costs its depth plus one (the depth
 * word), so this holds ~100 s at 1 kHz of 30-frame stacks. Pages are
 * touched only as samples arrive. */
#define BUF_WORDS (1u << 22)

static uintptr_t *buf;
static size_t used;
static unsigned long dropped;
static uintptr_t stack_lo, stack_hi;
static pid_t main_tid;

static void on_prof(int sig, siginfo_t *info, void *ctx)
{
    (void)sig;
    (void)info;
    if (syscall(SYS_gettid) != main_tid)
        return;
    if (used + MAX_DEPTH + 1 > BUF_WORDS) {
        dropped++;
        return;
    }
    const ucontext_t *uc = ctx;
#if defined(__x86_64__)
    uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
#elif defined(__aarch64__)
    uintptr_t pc = uc->uc_mcontext.pc;
    uintptr_t fp = uc->uc_mcontext.regs[29];
#else
#error "unsupported architecture"
#endif
    uintptr_t *out = buf + used + 1;
    size_t depth = 0;
    out[depth++] = pc;
    /* A frame record is [caller's fp, return address]. */
    while (depth < MAX_DEPTH && fp >= stack_lo && fp + 16 <= stack_hi && (fp & 7) == 0) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        uintptr_t next = frame[0], ret = frame[1];
        if (ret == 0)
            break;
        out[depth++] = ret;
        if (next <= fp)
            break;
        fp = next;
    }
    buf[used] = depth;
    used += depth + 1;
}

__attribute__((constructor)) static void sampler_start(void)
{
    pthread_attr_t attr;
    void *addr;
    size_t size;
    if (pthread_getattr_np(pthread_self(), &attr) != 0 ||
        pthread_attr_getstack(&attr, &addr, &size) != 0) {
        fprintf(stderr, "sampler: cannot find the main thread's stack\n");
        return;
    }
    pthread_attr_destroy(&attr);
    stack_lo = (uintptr_t)addr;
    stack_hi = stack_lo + size;
    main_tid = (pid_t)syscall(SYS_gettid);
    buf = mmap(NULL, BUF_WORDS * sizeof *buf, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buf == MAP_FAILED) {
        buf = NULL;
        fprintf(stderr, "sampler: cannot map the sample buffer\n");
        return;
    }
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it;
    it.it_interval.tv_sec = 0;
    it.it_interval.tv_usec = 1000000 / SAMPLE_HZ;
    it.it_value = it.it_interval;
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void sampler_stop(void)
{
    if (buf == NULL || syscall(SYS_gettid) != main_tid)
        return;
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);

    const char *path = getenv("PROFILE_OUT");
    FILE *f = fopen(path ? path : "profile.out", "w");
    if (f == NULL) {
        perror("sampler: opening PROFILE_OUT");
        return;
    }
    fputs("# maps\n", f);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps != NULL) {
        char line[4096];
        while (fgets(line, sizeof line, maps) != NULL)
            fputs(line, f);
        fclose(maps);
    }
    fputs("# samples\n", f);
    size_t samples = 0;
    for (size_t i = 0; i < used; samples++) {
        size_t depth = buf[i++];
        for (size_t d = 0; d < depth; d++)
            fprintf(f, d ? " %lx" : "%lx", (unsigned long)buf[i + d]);
        fputc('\n', f);
        i += depth;
    }
    fclose(f);
    fprintf(stderr, "sampler: %zu samples (%lu more dropped on a full buffer) -> %s\n",
            samples, dropped, path ? path : "profile.out");
}
