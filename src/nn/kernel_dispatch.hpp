#pragma once
// Runtime ISA dispatch for the batched inference kernels. target_clones
// compiles the annotated function once per listed ISA and picks the widest
// the CPU supports at load time (glibc ifunc), so one portable binary still
// runs 4- or 8-wide over the batch dimension on AVX2/AVX-512 machines.
//
// Determinism note: the dispatched kernels are compiled with FP contraction
// off (see src/nn/CMakeLists.txt), so every lane performs the same
// multiply-then-add sequence as the scalar reference math (DESIGN.md §7) —
// results are bit-identical across ISAs and to the unvectorized fallback.

// ThreadSanitizer cannot run ifunc resolvers (they execute before the TSAN
// runtime initializes — load-time segfault), so dispatch is disabled under
// -fsanitize=thread and the kernels run the default lane. That lane is
// bit-identical to every other lane by the determinism contract (DESIGN.md
// §7), so TSAN builds still validate the same arithmetic.
#if defined(__SANITIZE_THREAD__)
#define MINICOST_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MINICOST_TSAN_ACTIVE 1
#endif
#endif

#if defined(__x86_64__) && defined(__gnu_linux__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(MINICOST_TSAN_ACTIVE)
#define MINICOST_TARGET_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define MINICOST_TARGET_CLONES
#endif
