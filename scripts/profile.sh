#!/usr/bin/env bash
# In-run attribution of one hawkbench workload: where the event loop
# (`Driver::run_with_estimates`) spends its time, from a sampling profile
# of an ordinary untraced run rather than from replayed layer costs.
#
#   scripts/profile.sh [--workload W] [--seed S] [--seconds N] [--hz H] [--top N]
#
# Three parts, nothing of hawkbench touched:
#  1. a SIGPROF stack sampler, a few dozen lines of C built with `cc` into
#     a shared object and loaded with LD_PRELOAD: every 1/H s of CPU it
#     walks the frame-pointer chain of the interrupted thread into a
#     preallocated buffer, written out at exit;
#  2. hawkbench built from this checkout into target/profile/ (its own
#     target dir) with debug info and forced frame pointers, so the walk
#     reaches through the layer crates;
#  3. an addr2line resolver that expands each sampled address into its
#     chain of inlined frames, keeps the samples that pass through
#     `Driver::run_with_estimates`, and prints the self and inclusive
#     shares of the layers below it (engine pop and push, placement, the
#     steal attempt and its queue scans) and of the top functions.
#
# Defaults: hawk_flat_15k, seed 1, a 4 s budget, 997 Hz, top 25. A share
# is of the samples under the event loop; frames of the precompiled
# standard library have no frame pointer, so a sample taken inside one is
# charged to its caller's caller.
set -euo pipefail

workload=hawk_flat_15k seed=1 seconds=4 hz=997 top=25
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || { sed -n '2,26p' "$0" >&2; exit 2; }
    case $1 in
        --workload) workload=$2 ;;
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        --hz) hz=$2 ;;
        --top) top=$2 ;;
        *) sed -n '2,26p' "$0" >&2; exit 2 ;;
    esac
    shift 2
done

root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/target/profile
mkdir -p "$out"

cat > "$out/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define WORDS (1 << 22)
#define DEPTH 128

static uintptr_t buf[WORDS];
static volatile size_t used;
static uintptr_t stack_top; /* the main thread's stack base */

/* One sample: its frame count, then the interrupted pc and, on the main
   thread, each return address up the rbp chain. Code without frame
   pointers uses rbp freely, so a frame is followed only while it lies
   between the interrupted sp and the stack base, aligned and above the
   last one. */
static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig; (void)info;
    mcontext_t *m = &((ucontext_t *)ctx)->uc_mcontext;
    size_t at = used;
    if (at + DEPTH + 1 > WORDS) return;
    size_t n = 0;
    buf[at + 1 + n++] = (uintptr_t)m->gregs[REG_RIP];
    uintptr_t sp = (uintptr_t)m->gregs[REG_RSP];
    uintptr_t fp = (uintptr_t)m->gregs[REG_RBP];
    if (sp >= stack_top) fp = 0; /* another thread: its pc alone */
    while (n < DEPTH && fp >= sp && fp + 16 <= stack_top && (fp & 7) == 0) {
        uintptr_t ret = ((uintptr_t *)fp)[1], next = ((uintptr_t *)fp)[0];
        if (!ret) break;
        buf[at + 1 + n++] = ret;
        if (next <= fp) break;
        fp = next;
    }
    buf[at] = n;
    used = at + 1 + n;
}

__attribute__((constructor)) static void start(void) {
    unsetenv("LD_PRELOAD"); /* children (git, rustc) run unsampled */
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, "[stack]")) sscanf(line, "%*lx-%lx", &stack_top);
    if (maps) fclose(maps);
    const char *hz = getenv("SAMPLER_HZ");
    long period = 1000000 / (hz ? atol(hz) : 997);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval t = {{0, period}, {0, period}};
    setitimer(ITIMER_PROF, &t, NULL);
}

/* The samples, then the executable's mappings, so the resolver can turn
   a pc into an address of the ELF file. */
__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SAMPLER_OUT");
    FILE *f = fopen(path ? path : "samples.txt", "w");
    if (!f) return;
    for (size_t i = 0; i < used; i += 1 + buf[i]) {
        for (size_t j = 1; j <= buf[i]; j++) fprintf(f, "%lx ", (unsigned long)buf[i + j]);
        fputc('\n', f);
    }
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps)) fprintf(f, "map %s", line);
    if (maps) fclose(maps);
    fclose(f);
}
EOF
cc -O2 -fPIC -shared -o "$out/sampler.so" "$out/sampler.c"

echo "building hawkbench with debug info and frame pointers into $out ..." >&2
CARGO_TARGET_DIR=$out CARGO_PROFILE_RELEASE_DEBUG=1 RUSTFLAGS=-Cforce-frame-pointers=yes \
    cargo build --release --offline --quiet \
    --manifest-path "$root/crates/bench/src/bin/hawkbench/Cargo.toml"
bin=$out/release/hawkbench

echo "sampling $workload (seed $seed, ${seconds} s budget, $hz Hz) ..." >&2
SAMPLER_OUT=$out/samples.txt SAMPLER_HZ=$hz LD_PRELOAD=$out/sampler.so \
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" > "$out/run.txt"

python3 - "$bin" "$out/samples.txt" "$top" <<'EOF'
import collections, re, subprocess, sys

exe, samples_path, top = sys.argv[1], sys.argv[2], int(sys.argv[3])
stacks, spans, base = [], [], None
for line in open(samples_path):
    if line.startswith("map "):
        f = line.split()
        if len(f) >= 7 and f[6] == exe:
            lo, hi = (int(x, 16) for x in f[1].split("-"))
            spans.append((lo, hi))
            if int(f[3], 16) == 0:
                base = lo
    elif line.strip():
        stacks.append([int(pc, 16) for pc in line.split()])
if base is None:
    sys.exit("no mapping of " + exe + " in the samples")

def addr(i, pc):
    """The ELF address of a sampled pc; a return address points after its
    call, so a caller's is taken one byte back. None outside the binary."""
    if not any(lo <= pc < hi for lo, hi in spans):
        return None
    return pc - base - (i > 0)

# With -i each address prints its chain of inlined frames, innermost
# first, as name / location line pairs; address 0 after each one prints
# "??" and closes the chain.
wanted = sorted({a for s in stacks for i, pc in enumerate(s) if (a := addr(i, pc)) is not None})
out = subprocess.run(["addr2line", "-f", "-i", "-C", "-e", exe],
                     input="".join("%x\n0\n" % a for a in wanted),
                     capture_output=True, text=True, check=True).stdout.splitlines()
frames, chain, todo = {}, [], iter(wanted)
for name in out[0::2]:
    if name == "??" and chain:
        frames[next(todo)] = chain
        chain = []
    else:
        chain.append(re.sub(r"::h[0-9a-f]{16}$", "", name))

LOOP = "Driver::run_with_estimates"
inside = []
for s in stacks:
    flat = [f for i, pc in enumerate(s)
            for f in frames.get(addr(i, pc), ["[outside the binary]"])]
    cut = next((k for k, f in enumerate(flat) if LOOP in f), None)
    if cut is not None:
        inside.append(flat[:cut + 1])
if not inside:
    sys.exit("no sample passed through " + LOOP)
n = len(inside)

def share(count):
    return "%5.1f %%" % (100 * count / n)

print("%d samples, %d of them under %s" % (len(stacks), n, LOOP))
print("\n%-16s %9s %9s" % ("layer", "inclusive", "self"))
layers = [
    ("engine pop", r"Engine<.*>::pop\b|EventQueue<.*>::pop\b"),
    ("engine push", r"Engine<.*>::schedule|EventQueue<.*>::(push|schedule)\b"),
    ("placement", r"::probe_targets\b|targets_in_view_into|assign_job_into"),
    ("steal attempt", r"Core::try_steal\b"),
    ("steal scan", r"Cluster::steal_into\b|steal_from_into|eligible_run"),
    ("victim draw", r"VictimDraw::next\b"),
]
for label, pattern in layers:
    rx = re.compile(pattern)
    incl = sum(any(rx.search(f) for f in s) for s in inside)
    own = sum(bool(rx.search(s[0])) for s in inside)
    print("%-16s %9s %9s" % (label, share(incl), share(own)))

self_n = collections.Counter(s[0] for s in inside)
incl_n = collections.Counter(f for s in inside for f in set(s))
for title, counts in (("self", self_n), ("inclusive", incl_n)):
    print("\ntop %d functions by %s share:" % (top, title))
    for name, count in counts.most_common(top):
        print("  %s  %s" % (share(count), name[:150]))
EOF
