#include "ftspm/workload/case_study.h"

#include <algorithm>

#include "ftspm/util/error.h"
#include "ftspm/util/rng.h"
#include "ftspm/workload/even_split.h"
#include "ftspm/workload/trace_builder.h"

namespace ftspm {

CaseStudyTargets CaseStudyTargets::scaled_down(std::uint64_t divisor) const {
  FTSPM_REQUIRE(divisor >= 1, "divisor must be >= 1");
  CaseStudyTargets t = *this;
  auto div = [divisor](std::uint64_t v, std::uint64_t lo) {
    return std::max<std::uint64_t>(lo, v / divisor);
  };
  t.outer_iterations = div(outer_iterations, 1);
  t.mul_calls = div(mul_calls, t.outer_iterations);
  t.add_calls = div(add_calls, t.outer_iterations);
  t.qsort_calls = div(qsort_calls, t.outer_iterations);
  t.main_fetches = div(main_fetches, t.qsort_calls);
  t.mul_fetches = div(mul_fetches, t.mul_calls);
  t.add_fetches = div(add_fetches, t.add_calls);
  t.mul_reads_array2 = div(mul_reads_array2, 1);
  t.add_reads_array3 = div(add_reads_array3, 1);
  t.add_writes_array3 = div(add_writes_array3, 1);
  t.add_reads_array4 = div(add_reads_array4, 1);
  t.qsort_reads_array1 = div(qsort_reads_array1, 1);
  t.qsort_writes_array1 = div(qsort_writes_array1, 1);
  t.qsort_stack_writes = div(qsort_stack_writes, 1);
  t.qsort_stack_reads = div(qsort_stack_reads, 1);
  return t;
}

Workload make_case_study(const CaseStudyTargets& t) {
  FTSPM_REQUIRE(t.outer_iterations >= 1, "need at least one iteration");
  FTSPM_REQUIRE(t.mul_calls >= t.outer_iterations &&
                    t.add_calls >= t.outer_iterations &&
                    t.qsort_calls >= t.outer_iterations,
                "each phase needs at least one call per iteration");

  Program program(
      "case_study",
      {Block{"Main", BlockKind::Code, t.main_code_bytes},
       Block{"Mul", BlockKind::Code, t.mul_code_bytes},
       Block{"Add", BlockKind::Code, t.add_code_bytes},
       Block{"Array1", BlockKind::Data, t.array_bytes},
       Block{"Array2", BlockKind::Data, t.array_bytes},
       Block{"Array3", BlockKind::Data, t.array_bytes},
       Block{"Array4", BlockKind::Data, t.array_bytes},
       Block{"Stack", BlockKind::Stack, t.stack_bytes}});

  using B = CaseStudyBlocks;
  TraceBuilder builder(program);
  Rng rng(0xf75b'ca5e'57'0d11ULL);
  const std::uint32_t array_words = t.array_bytes / 8;

  // Main's fetch budget: a slice for initialisation, a slice for the
  // outer-loop bookkeeping, and the rest attributed to the inlined
  // quicksort. All three are exact splits, so the Main total matches
  // Table I to the access.
  const std::uint64_t init_fetches = t.main_fetches / 500;
  const std::uint64_t loop_fetches = t.main_fetches / 100;
  const std::uint64_t qsort_fetches =
      t.main_fetches - init_fetches - loop_fetches;

  const std::uint64_t n = t.outer_iterations;
  EvenSplit mul_calls_it(t.mul_calls, n);
  EvenSplit add_calls_it(t.add_calls, n);
  EvenSplit qsort_calls_it(t.qsort_calls, n);
  EvenSplit loop_fetch_it(loop_fetches, n);

  EvenSplit mul_fetch(t.mul_fetches, t.mul_calls);
  EvenSplit mul_a2(t.mul_reads_array2, t.mul_calls);
  EvenSplit add_fetch(t.add_fetches, t.add_calls);
  EvenSplit add_a3r(t.add_reads_array3, t.add_calls);
  EvenSplit add_a3w(t.add_writes_array3, t.add_calls);
  EvenSplit add_a4(t.add_reads_array4, t.add_calls);

  EvenSplit q_fetch(qsort_fetches, t.qsort_calls);
  EvenSplit q_a1r(t.qsort_reads_array1, t.qsort_calls);
  EvenSplit q_a1w(t.qsort_writes_array1, t.qsort_calls);
  EvenSplit q_sw(t.qsort_stack_writes, t.qsort_calls);
  EvenSplit q_sr(t.qsort_stack_reads, t.qsort_calls);

  builder.call(B::kMain, t.main_frame_bytes);

  // --- initialisation: Algorithm 2 line 1 ---------------------------
  builder.fetch(init_fetches);
  for (BlockId array : {B::kArray1, B::kArray2, B::kArray3, B::kArray4})
    builder.write(array, t.init_passes * array_words);

  for (std::uint64_t it = 0; it < n; ++it) {
    builder.fetch(loop_fetch_it.take());

    // --- Mul phase: Array1[i] = f(Array1[i], Array2[i]) -------------
    // The frame spill and reload are emitted back-to-back so the stack
    // block's "most recently referenced" intervals stay short — its
    // Table I signature (huge access count, tiny lifetime, and hence
    // low susceptibility).
    const std::uint64_t mul_calls = mul_calls_it.take();
    for (std::uint64_t c = 0; c < mul_calls; ++c) {
      builder.call(B::kMul, t.mul_frame_bytes);
      builder.fetch(mul_fetch.take());
      builder.stack_write(t.frame_spill_words);
      builder.stack_read(t.frame_spill_words);
      builder.read(B::kArray1, t.mul_reads_array1_per_call,
                   static_cast<std::uint32_t>(rng.next_below(array_words)));
      builder.write(B::kArray1, t.mul_writes_array1_per_call,
                    static_cast<std::uint32_t>(rng.next_below(array_words)));
      // The operand stream is read last (software pipelining: the next
      // call's inputs are prefetched), so Array2 — not Array1 — is the
      // "current" data block across Mul's long fetch runs.
      builder.read(B::kArray2, mul_a2.take(),
                   static_cast<std::uint32_t>(rng.next_below(array_words)));
      builder.ret();
    }

    // --- Add phase: Array3[i] = Array3[i] + Array4[i] ----------------
    const std::uint64_t add_calls = add_calls_it.take();
    for (std::uint64_t c = 0; c < add_calls; ++c) {
      builder.call(B::kAdd, t.add_frame_bytes);
      builder.stack_write(t.frame_spill_words);
      builder.stack_read(t.frame_spill_words);
      builder.read(B::kArray4, add_a4.take(),
                   static_cast<std::uint32_t>(rng.next_below(array_words)));
      builder.read(B::kArray3, add_a3r.take(),
                   static_cast<std::uint32_t>(rng.next_below(array_words)));
      builder.write(B::kArray3, add_a3w.take(),
                    static_cast<std::uint32_t>(rng.next_below(array_words)));
      // Add's arithmetic trails its loads, so Array3 stays current
      // across the fetch run — balancing its lifetime against Array1's.
      builder.fetch(add_fetch.take());
      builder.ret();
    }

    // --- quicksort phase over Array1 (inlined in Main) ---------------
    // Recursion is emulated as self-calls into Main; descents follow a
    // deterministic depth pattern that reaches qsort_max_depth, giving
    // Table I's 348-byte maximum stack (60 + 18*16). Array/stack work
    // is batched across groups of descents so Array1 accumulates long
    // references — its Table I signature alongside Array3's — instead
    // of one short run per recursion node.
    std::uint64_t q_remaining = qsort_calls_it.take();
    const std::uint64_t batch_target = std::max<std::uint64_t>(
        1, t.qsort_calls / (t.outer_iterations * 14));
    std::uint32_t pattern = 0;
    while (q_remaining > 0) {
      static constexpr std::uint32_t kDepths[] = {4, 9, 14, 18, 6, 11, 2, 16};
      std::uint64_t batch_calls = 0;
      while (batch_calls < batch_target && q_remaining > 0) {
        std::uint32_t depth = kDepths[pattern++ % 8];
        depth = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(depth, q_remaining));
        q_remaining -= depth;
        batch_calls += depth;
        for (std::uint32_t d = 0; d < depth; ++d)
          builder.call(B::kMain, t.qsort_frame_bytes);
        for (std::uint32_t d = 0; d < depth; ++d) builder.ret();
      }
      builder.fetch(q_fetch.take(batch_calls));
      const std::uint64_t sw = q_sw.take(batch_calls);
      if (sw > 0) builder.stack_write(sw);
      const std::uint64_t sr = q_sr.take(batch_calls);
      if (sr > 0) builder.stack_read(sr);
      builder.read(B::kArray1, q_a1r.take(batch_calls),
                   static_cast<std::uint32_t>(rng.next_below(array_words)));
      builder.write(B::kArray1, q_a1w.take(batch_calls),
                    static_cast<std::uint32_t>(rng.next_below(array_words)));
    }
  }

  builder.ret();
  Trace trace = builder.take();
  return Workload{std::move(program), std::move(trace)};
}

}  // namespace ftspm
