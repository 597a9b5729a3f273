// Golden digests of the profile -> map -> simulate pipeline.
//
// Every BlockProfile field and every RunResult field (doubles by bit
// pattern, per-phase attribution included) of the 12 suite benchmarks
// and the case study, under all three structures, with observability
// off and on (the latter with a trace sink attached, whose document is
// folded in too), is hashed into one 64-bit FNV-1a digest per
// (workload, scale). The pinned values were captured from the per-word
// trace consumers the run-length kernels replaced, so any drift in a
// counter, an energy's last bit, or a trace timestamp fails here.
//
// The second half checks the profiler's closed form against a per-word
// reference profiler on random traces: runs longer than the block,
// exact multiples of it, wraps at the block end, and non-zero gaps.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ftspm/core/baseline_mapper.h"
#include "ftspm/core/systems.h"
#include "ftspm/obs/context.h"
#include "ftspm/workload/case_study.h"
#include "ftspm/workload/suite.h"
#include "support/run_traces.h"

namespace ftspm {
namespace {

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001B3ULL;
    }
  }
  template <class T>
  void add(const std::vector<T>& v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (const T& x : v) add(static_cast<std::uint64_t>(x));
  }
  /// Folds the ids exactly as add(std::vector<BlockId>) folded them.
  void add(const ReferenceSequence& seq) {
    add(static_cast<std::uint64_t>(seq.size()));
    for (const BlockId id : seq) add(static_cast<std::uint64_t>(id));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

void add_profile(Digest& d, const ProgramProfile& p) {
  d.add(p.total_cycles);
  d.add(p.total_accesses);
  d.add(p.reference_sequence);
  d.add(static_cast<std::uint64_t>(p.blocks.size()));
  for (const BlockProfile& b : p.blocks) {
    d.add(static_cast<std::uint64_t>(b.id));
    d.add(b.reads);
    d.add(b.writes);
    d.add(b.references);
    d.add(b.stack_calls);
    d.add(static_cast<std::uint64_t>(b.max_stack_bytes));
    d.add(b.lifetime_cycles);
    d.add(b.ace_cycles);
    d.add(b.max_word_writes);
  }
}

void add_cache(Digest& d, const CacheStats& c) {
  d.add(c.reads);
  d.add(c.writes);
  d.add(c.read_misses);
  d.add(c.write_misses);
  d.add(c.writebacks);
}

void add_run(Digest& d, const RunResult& r) {
  d.add(r.layout_name);
  d.add(r.clock_mhz);
  d.add(r.total_cycles);
  d.add(r.compute_cycles);
  d.add(r.spm_cycles);
  d.add(r.cache_cycles);
  d.add(r.dram_penalty_cycles);
  d.add(r.dma_cycles);
  d.add(static_cast<std::uint64_t>(r.regions.size()));
  for (const RegionRunStats& s : r.regions) {
    d.add(s.reads);
    d.add(s.writes);
    d.add(s.read_energy_pj);
    d.add(s.write_energy_pj);
    d.add(s.dma_in_words);
    d.add(s.dma_out_words);
    d.add(s.capacity_evictions);
    d.add(s.max_word_writes);
  }
  add_cache(d, r.icache);
  add_cache(d, r.dcache);
  d.add(r.cache_energy_pj);
  d.add(r.dram_energy_pj);
  d.add(r.dma_energy_pj);
  d.add(r.dma_dram_side_energy_pj);
  d.add(r.spm_static_energy_pj);
  d.add(static_cast<std::uint64_t>(r.phases.size()));
  for (const PhaseStats& p : r.phases) {
    d.add(p.name);
    d.add(p.compute_cycles);
    d.add(p.spm_cycles);
    d.add(p.cache_cycles);
    d.add(p.dram_penalty_cycles);
    d.add(p.dma_cycles);
    d.add(p.accesses);
    d.add(p.spm_energy_pj);
    d.add(p.cache_energy_pj);
    d.add(p.dram_energy_pj);
  }
  d.add(r.block_max_word_writes);
  d.add(r.block_spm_accesses);
  d.add(r.block_cache_accesses);
}

/// Profile, then all three structures with observability off and on.
std::uint64_t pipeline_digest(const Workload& w) {
  Digest d;
  const ProgramProfile prof = profile_workload(w);
  add_profile(d, prof);

  const StructureEvaluator ev;
  const SpmLayout* layouts[3] = {&ev.ftspm_layout(), &ev.pure_sram_layout(),
                                 &ev.pure_stt_layout()};
  const MappingDeterminer mda(ev.ftspm_layout(), ev.sim_config());
  const MappingPlan plans[3] = {
      mda.determine(w.program, prof),
      determine_baseline_mapping(ev.pure_sram_layout(), w.program, prof),
      determine_baseline_mapping(ev.pure_stt_layout(), w.program, prof)};
  for (std::size_t s = 0; s < 3; ++s) {
    const Simulator sim(*layouts[s], ev.sim_config());
    add_run(d, sim.run(w, plans[s].block_to_region()));

    obs::TraceEventSink sink;
    obs::Context ctx;
    ctx.trace = &sink;
    add_run(d, sim.run(w, plans[s].block_to_region(), &ctx));
    d.add(sink.str());
  }
  return d.value();
}

struct DigestCase {
  const char* name;
  std::function<Workload()> make;
  std::uint64_t golden;
};

std::vector<DigestCase> digest_cases() {
  // Captured from the per-word consumers (see the file comment).
  static const std::uint64_t kGolden[][2] = {
      {0xC2994D1BCDBB3DC5ULL, 0xEBD8770CC9CBA2DBULL},  // basicmath
      {0xF6EC3C8A3C2EDC28ULL, 0x5B7AC4DD18150061ULL},  // bitcount
      {0x956C43151A8A00BEULL, 0x0F169F4DB8243C47ULL},  // qsort
      {0x6EFCAF811351C7BFULL, 0x36228B687579D2A2ULL},  // susan
      {0x13CCAD5A65499FF4ULL, 0xDDC425D69F5EEA47ULL},  // jpeg
      {0x0E4CB31F657544D1ULL, 0xEFE5BCB811643028ULL},  // dijkstra
      {0x0FF759A826E074E7ULL, 0xF2461E30A8457752ULL},  // stringsearch
      {0xBAEBA3310B4EBC74ULL, 0x9FBE0886295CB625ULL},  // sha
      {0x0601CD8C1698726EULL, 0x9DACE32F51C0ECAEULL},  // crc32
      {0xC3E8CDE575B2969EULL, 0xC9DFB6E5A7E8AF55ULL},  // fft
      {0xBD749A35862C9019ULL, 0x731500311B995895ULL},  // adpcm
      {0xA1A395E1987C8785ULL, 0x972913BB0F70951BULL},  // rijndael
      {0x08CB6D86223F3C37ULL, 0x6F52267114869406ULL},  // case study
  };
  static_assert(std::size(kGolden) == kMiBenchmarkCount + 1);
  std::vector<DigestCase> out;
  const std::uint64_t scales[2] = {1, 4};
  for (std::size_t i = 0; i < kMiBenchmarkCount; ++i) {
    const MiBenchmark bench = all_benchmarks()[i];
    for (std::size_t s = 0; s < 2; ++s)
      out.push_back(
          {to_string(bench),
           [bench, scale = scales[s]] { return make_benchmark(bench, scale); },
           kGolden[i][s]});
  }
  for (std::size_t s = 0; s < 2; ++s)
    out.push_back({"case_study",
                   [scale = scales[s]] {
                     return make_case_study(
                         CaseStudyTargets{}.scaled_down(scale));
                   },
                   kGolden[kMiBenchmarkCount][s]});
  return out;
}

class PipelineDigest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PipelineDigest, MatchesGolden) {
  const DigestCase c = digest_cases()[GetParam()];
  const std::uint64_t got = pipeline_digest(c.make());
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llX",
                static_cast<unsigned long long>(got));
  EXPECT_EQ(got, c.golden) << c.name << " digest " << hex;
}

INSTANTIATE_TEST_SUITE_P(
    SuiteAndCaseStudy, PipelineDigest,
    ::testing::Range<std::size_t>(0, 2 * (kMiBenchmarkCount + 1)),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      const std::size_t scale = info.param % 2 == 0 ? 1 : 4;
      return std::string(digest_cases()[info.param].name) + "_scale" +
             std::to_string(scale);
    });

/// The per-word ACE bookkeeping the profiler's closed form replaces:
/// every visit k of a run, at now + (k + 1) * (gap + 1), on word
/// (offset + k) % words. Returns per block {ace_cycles, max_word_writes}.
std::vector<std::pair<std::uint64_t, std::uint64_t>> reference_word_profile(
    const Workload& w) {
  const Program& program = w.program;
  const std::size_t n = program.block_count();
  std::vector<std::vector<std::uint64_t>> born(n), last_read(n), writes(n);
  std::vector<std::uint64_t> ace(n, 0), last_fetch(n, 0);
  for (std::size_t b = 0; b < n; ++b) {
    const std::uint64_t words = program.block(static_cast<BlockId>(b))
                                    .size_words();
    born[b].assign(words, 0);
    last_read[b].assign(words, 0);
    writes[b].assign(words, 0);
  }
  std::uint64_t now = 0;
  for (const TraceEvent& e : w.trace) {
    if (e.is_marker()) continue;
    const std::size_t b = e.block;
    if (e.type == AccessType::Fetch) {
      now += e.nominal_cycles();
      last_fetch[b] = now;
      continue;
    }
    const std::uint64_t words = born[b].size();
    for (std::uint64_t k = 0; k < e.repeat; ++k) {
      const std::uint64_t word = (e.offset + k) % words;
      const std::uint64_t t = now + (k + 1) * (e.gap + 1ULL);
      if (e.type == AccessType::Read) {
        last_read[b][word] = t;
      } else {
        if (last_read[b][word] > born[b][word])
          ace[b] += last_read[b][word] - born[b][word];
        born[b][word] = t;
        last_read[b][word] = 0;
        ++writes[b][word];
      }
    }
    now += e.nominal_cycles();
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out(n);
  for (std::size_t b = 0; b < n; ++b) {
    const Block& blk = program.block(static_cast<BlockId>(b));
    if (blk.is_code()) {
      out[b] = {blk.size_words() * last_fetch[b], 0};
      continue;
    }
    for (std::size_t word = 0; word < born[b].size(); ++word)
      if (last_read[b][word] > born[b][word])
        ace[b] += last_read[b][word] - born[b][word];
    out[b] = {ace[b],
              *std::max_element(writes[b].begin(), writes[b].end())};
  }
  return out;
}

// The profiler's per-run closed form against the per-word reference on
// random traces (runs longer than their block, exact multiples of it,
// wraps at the block end, gaps > 0). The whole profile must also equal
// the profile of the same trace split into one event per word.
TEST(ProfilerClosedForm, MatchesPerWordReferenceOnRandomTraces) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    const Workload w = testing_support::random_run_workload(seed);
    const ProgramProfile prof = profile_workload(w);
    const auto want = reference_word_profile(w);
    for (std::size_t b = 0; b < want.size(); ++b) {
      EXPECT_EQ(prof.blocks[b].ace_cycles, want[b].first) << "block " << b;
      EXPECT_EQ(prof.blocks[b].max_word_writes, want[b].second)
          << "block " << b;
    }
    EXPECT_EQ(prof.total_cycles, w.nominal_cycles());

    Digest runs, words;
    add_profile(runs, prof);
    add_profile(words,
                profile_workload(testing_support::split_into_words(w)));
    EXPECT_EQ(runs.value(), words.value());
  }
}

}  // namespace
}  // namespace ftspm
