#include "ftspm/workload/suite.h"

#include <algorithm>

#include "ftspm/util/error.h"
#include "ftspm/util/rng.h"
#include "ftspm/workload/trace_builder.h"

namespace ftspm {

const char* to_string(MiBenchmark bench) noexcept {
  switch (bench) {
    case MiBenchmark::Basicmath: return "basicmath";
    case MiBenchmark::Bitcount: return "bitcount";
    case MiBenchmark::Qsort: return "qsort";
    case MiBenchmark::Susan: return "susan";
    case MiBenchmark::Jpeg: return "jpeg";
    case MiBenchmark::Dijkstra: return "dijkstra";
    case MiBenchmark::StringSearch: return "stringsearch";
    case MiBenchmark::Sha: return "sha";
    case MiBenchmark::Crc32: return "crc32";
    case MiBenchmark::Fft: return "fft";
    case MiBenchmark::Adpcm: return "adpcm";
    case MiBenchmark::Rijndael: return "rijndael";
  }
  return "?";
}

const std::vector<MiBenchmark>& all_benchmarks() {
  static const std::vector<MiBenchmark> kAll{
      MiBenchmark::Basicmath, MiBenchmark::Bitcount, MiBenchmark::Qsort,
      MiBenchmark::Susan,     MiBenchmark::Jpeg,     MiBenchmark::Dijkstra,
      MiBenchmark::StringSearch, MiBenchmark::Sha,   MiBenchmark::Crc32,
      MiBenchmark::Fft,       MiBenchmark::Adpcm,    MiBenchmark::Rijndael};
  return kAll;
}

namespace {

constexpr std::uint32_t KiB = 1024;

std::uint64_t scaled(std::uint64_t n, std::uint64_t divisor) {
  return std::max<std::uint64_t>(1, n / divisor);
}

std::uint32_t rand_off(Rng& rng, const Program& p, BlockId b) {
  return static_cast<std::uint32_t>(rng.next_below(p.block(b).size_words()));
}

// Each kernel below is shaped after its MiBench namesake: the block
// structure (tables, streams, in-place buffers, small hot state, call
// stack) and the read/write mix follow the original's character.
// Common tuning across the suite: instruction-fetch to data-access
// ratios around 3:1, data-write shares of 20-40% where the original is
// write-capable, and a deliberate wear hierarchy — tiny hot blocks and
// busy stacks accumulate enough writes to trip MDA's endurance filter,
// while a diffusely-written block stays behind in STT-RAM so endurance
// stays finite and measurable.

// ---- basicmath: compute-bound scalar math, light memory traffic ------
Workload make_basicmath(std::uint64_t div) {
  Program p("basicmath",
            {Block{"main", BlockKind::Code, 6 * KiB},
             Block{"cubic", BlockKind::Code, 3 * KiB},
             Block{"isqrt", BlockKind::Code, 2 * KiB},
             Block{"coeffs", BlockKind::Data, 2 * KiB},
             Block{"results", BlockKind::Data, 4 * KiB},
             Block{"stack", BlockKind::Stack, 512}});
  TraceBuilder b(p);
  Rng rng(0xba51c'0001);
  const std::uint64_t iters = scaled(36'000, div);
  b.call(0, 48);
  b.fetch(400);
  for (std::uint64_t i = 0; i < iters; ++i) {
    b.call(1, 64, 3);  // cubic(): solves one polynomial
    b.fetch(24, 1);    // gap=1: arithmetic between loads
    b.read(3, 4, rand_off(rng, p, 3));
    b.write_at(4, static_cast<std::uint32_t>(i % p.block(4).size_words()));
    b.ret(3);
    if (i % 4 == 0) {
      b.call(2, 32, 2);  // isqrt() on every 4th root
      b.fetch(16, 1);
      b.read_at(4, static_cast<std::uint32_t>(i % p.block(4).size_words()));
      b.write_at(4, static_cast<std::uint32_t>((i + 7) %
                                               p.block(4).size_words()));
      b.ret(2);
    }
  }
  b.fetch(600);
  b.ret();
  Trace trace = b.take();
  return Workload{std::move(p), std::move(trace)};
}

// ---- bitcount: table-driven popcounts over an input stream -----------
Workload make_bitcount(std::uint64_t div) {
  Program p("bitcount",
            {Block{"main", BlockKind::Code, 3 * KiB},
             Block{"bitcnt", BlockKind::Code, 1 * KiB},
             Block{"lut", BlockKind::Data, 2 * KiB},
             Block{"input", BlockKind::Data, 8 * KiB},
             Block{"counters", BlockKind::Data, 512},
             Block{"hist", BlockKind::Data, 1 * KiB},
             Block{"stack", BlockKind::Stack, 256}});
  TraceBuilder b(p);
  Rng rng(0xb17c'0027);
  const std::uint64_t passes = scaled(800, div);
  const std::uint32_t in_words = p.block(3).size_words();  // 1024
  b.call(0, 32);
  b.fetch(300);
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    // One bitcnt activation per 64-word chunk; the counters block
    // (a handful of per-method totals) boils.
    for (std::uint32_t chunk = 0; chunk < in_words; chunk += 64) {
      b.call(1, 64, 8);
      b.fetch(420);
      b.read(3, 64, chunk);
      b.read(2, 48, rand_off(rng, p, 2));
      b.read(4, 24, 0);
      b.write(4, 24, 0);
      b.ret(8);
    }
    // Per-pass histogram flush: diffuse writes that stay in STT-RAM.
    b.fetch(200);
    b.write(5, 8, static_cast<std::uint32_t>((pass * 8) %
                                             p.block(5).size_words()));
  }
  b.ret();
  Trace trace = b.take();
  return Workload{std::move(p), std::move(trace)};
}

// ---- qsort: deep recursion, write-heavy record shuffling --------------
Workload make_qsort(std::uint64_t div) {
  Program p("qsort",
            {Block{"main", BlockKind::Code, 4 * KiB},
             Block{"qsort_fn", BlockKind::Code, 3 * KiB},
             Block{"cmp", BlockKind::Code, 1 * KiB},
             Block{"records", BlockKind::Data, 8 * KiB},  // > 2 KB regions
             Block{"aux", BlockKind::Data, 2 * KiB},
             Block{"stack", BlockKind::Stack, 2 * KiB}});
  TraceBuilder b(p);
  Rng rng(0x9507'7a11);
  const std::uint64_t sorts = scaled(40, div);
  b.call(0, 64);
  b.fetch(500);
  b.write(3, p.block(3).size_words());  // load the records
  for (std::uint64_t s = 0; s < sorts; ++s) {
    // Partition sweep at each recursion node; depth sawtooth to 24.
    for (std::uint32_t node = 0; node < 220; ++node) {
      const std::uint32_t depth = 1 + node % 24;
      for (std::uint32_t d = 0; d < depth; ++d) b.call(1, 48, 3);
      b.fetch(90 * depth);
      for (std::uint32_t c = 0; c < 6; ++c) {
        b.call(2, 16, 0);
        b.fetch(18);
        b.read(3, 24, rand_off(rng, p, 3));
        b.ret();
      }
      b.write(3, 40, rand_off(rng, p, 3));  // swaps
      b.read(4, 2, rand_off(rng, p, 4));
      b.write(4, 2, rand_off(rng, p, 4));   // pivot scratch, diffuse
      for (std::uint32_t d = 0; d < depth; ++d) b.ret(3);
    }
  }
  b.ret();
  Trace trace = b.take();
  return Workload{std::move(p), std::move(trace)};
}

// ---- susan: image smoothing — bright LUT + windowed input reads ------
Workload make_susan(std::uint64_t div) {
  Program p("susan",
            {Block{"main", BlockKind::Code, 5 * KiB},
             Block{"smooth", BlockKind::Code, 4 * KiB},
             Block{"usan", BlockKind::Code, 3 * KiB},
             Block{"img_in", BlockKind::Data, 6 * KiB},
             Block{"img_out", BlockKind::Data, 4 * KiB},
             Block{"lut", BlockKind::Data, 1 * KiB},
             Block{"edge_map", BlockKind::Data, 1 * KiB},
             Block{"stack", BlockKind::Stack, 512}});
  TraceBuilder b(p);
  Rng rng(0x5a5a'0000 ^ 0x1234);
  const std::uint64_t frames = scaled(260, div);
  b.call(0, 56);
  b.fetch(800);
  for (std::uint64_t f = 0; f < frames; ++f) {
    b.call(1, 72, 4);
    for (std::uint32_t row = 0; row < 32; ++row) {
      b.fetch(260);
      b.read(3, 40, static_cast<std::uint32_t>((row * 32) %
                                               p.block(3).size_words()));
      // Four USAN windows per row; their frames hammer the stack.
      for (std::uint32_t win = 0; win < 4; ++win) {
        b.call(2, 40, 4);
        b.fetch(60);
        b.read(5, 10, rand_off(rng, p, 5));  // brightness LUT, very hot
        b.ret(4);
      }
      b.write(4, 12, static_cast<std::uint32_t>((row * 24) %
                                                p.block(4).size_words()));
      b.write(6, 2, static_cast<std::uint32_t>((f * 4 + row / 8) %
                                               p.block(6).size_words()));
    }
    b.ret(4);
  }
  b.ret();
  Trace trace = b.take();
  return Workload{std::move(p), std::move(trace)};
}

// ---- jpeg: 17 KB of code (exceeds the I-SPM), hot coefficient block ---
Workload make_jpeg(std::uint64_t div) {
  Program p("jpeg",
            {Block{"main", BlockKind::Code, 6 * KiB},
             Block{"dct", BlockKind::Code, 4 * KiB},
             Block{"huffman", BlockKind::Code, 5 * KiB},
             Block{"quant", BlockKind::Code, 2 * KiB},
             Block{"img", BlockKind::Data, 6 * KiB},
             Block{"coeff", BlockKind::Data, 4 * KiB},  // hot RW, > regions
             Block{"qtable", BlockKind::Data, 512},
             Block{"htable", BlockKind::Data, 2 * KiB},
             Block{"out", BlockKind::Data, 3 * KiB},
             Block{"stack", BlockKind::Stack, 512}});
  TraceBuilder b(p);
  Rng rng(0x0e9e'6000);
  const std::uint64_t mcus = scaled(6'500, div);
  b.call(0, 64);
  b.fetch(900);
  for (std::uint64_t m = 0; m < mcus; ++m) {
    b.fetch(40);
    b.read(4, 64, static_cast<std::uint32_t>((m * 64) %
                                             p.block(4).size_words()));
    b.call(1, 96, 8);  // dct
    b.fetch(200, 1);
    b.write(5, 64, rand_off(rng, p, 5));
    b.read(5, 64, rand_off(rng, p, 5));
    b.ret(8);
    b.call(3, 32, 4);  // quant
    b.fetch(60);
    b.read(6, 16, 0);
    b.write(5, 32, rand_off(rng, p, 5));
    b.ret(4);
    b.call(2, 64, 6);  // huffman
    b.fetch(150);
    b.read(7, 48, rand_off(rng, p, 7));
    b.read(5, 64, rand_off(rng, p, 5));
    b.write(8, 6, static_cast<std::uint32_t>((m * 6) %
                                             p.block(8).size_words()));
    b.ret(6);
  }
  b.ret();
  Trace trace = b.take();
  return Workload{std::move(p), std::move(trace)};
}

// ---- dijkstra: graph reads + red-hot priority-queue root --------------
Workload make_dijkstra(std::uint64_t div) {
  Program p("dijkstra",
            {Block{"main", BlockKind::Code, 4 * KiB},
             Block{"dijkstra_fn", BlockKind::Code, 3 * KiB},
             Block{"adj", BlockKind::Data, 6 * KiB},
             Block{"dist", BlockKind::Data, 2 * KiB},
             Block{"visited", BlockKind::Data, 512},
             Block{"pq", BlockKind::Data, 2 * KiB},
             Block{"path_out", BlockKind::Data, 1 * KiB},
             Block{"stack", BlockKind::Stack, 512}});
  TraceBuilder b(p);
  Rng rng(0xd11c'57a1);
  const std::uint64_t queries = scaled(1'200, div);
  b.call(0, 48);
  b.fetch(600);
  for (std::uint64_t q = 0; q < queries; ++q) {
    b.call(1, 80, 4);
    b.write(3, p.block(3).size_words());  // dist = INF
    for (std::uint32_t settle = 0; settle < 64; ++settle) {
      b.fetch(130);
      b.read(5, 4, 0);    // pop-min at the heap root
      b.write(5, 4, 0);   // sift-down rewrites the root
      b.read(4, 2, static_cast<std::uint32_t>(settle % 56));
      b.write(4, 2, static_cast<std::uint32_t>(settle % 56));
      b.read(2, 20, rand_off(rng, p, 2));  // neighbour scan
      b.read(3, 8, rand_off(rng, p, 3));
      b.write(3, 5, rand_off(rng, p, 3));  // relaxations
      b.write(5, 3, rand_off(rng, p, 5));  // pushes, diffuse
    }
    // Emit the settled path: diffuse writes that stay in STT-RAM.
    b.write(6, 8, static_cast<std::uint32_t>((q * 8) %
                                             p.block(6).size_words()));
    b.ret(4);
  }
  b.ret();
  Trace trace = b.take();
  return Workload{std::move(p), std::move(trace)};
}

// ---- stringsearch: Boyer-Moore-Horspool — almost pure reads -----------
Workload make_stringsearch(std::uint64_t div) {
  Program p("stringsearch",
            {Block{"main", BlockKind::Code, 3 * KiB},
             Block{"bmh", BlockKind::Code, 2 * KiB},
             Block{"text", BlockKind::Data, 10 * KiB},
             Block{"patterns", BlockKind::Data, 1 * KiB},
             Block{"shift_tbl", BlockKind::Data, 512},
             Block{"matches", BlockKind::Data, 64},
             Block{"stack", BlockKind::Stack, 256}});
  TraceBuilder b(p);
  Rng rng(0x57a1'6b3f);
  const std::uint64_t searches = scaled(1'100, div);
  b.call(0, 40);
  b.fetch(350);
  b.write(4, p.block(4).size_words());  // build shift table once
  for (std::uint64_t s = 0; s < searches; ++s) {
    b.call(1, 48, 2);
    b.read(3, 16, rand_off(rng, p, 3));  // load the pattern
    for (std::uint32_t win = 0; win < 24; ++win) {
      b.fetch(170);
      b.read(2, 40, rand_off(rng, p, 2));  // text window
      b.read(4, 10, rand_off(rng, p, 4));  // shift-table probes
      b.write(5, 6, 0);                    // match counters, red hot
    }
    b.ret(2);
  }
  b.ret();
  Trace trace = b.take();
  return Workload{std::move(p), std::move(trace)};
}

// ---- sha: streaming input + ultra-hot 512 B message schedule ----------
Workload make_sha(std::uint64_t div) {
  Program p("sha",
            {Block{"main", BlockKind::Code, 3 * KiB},
             Block{"sha_transform", BlockKind::Code, 4 * KiB},
             Block{"msg", BlockKind::Data, 8 * KiB},
             Block{"w_sched", BlockKind::Data, 512},
             Block{"digest", BlockKind::Data, 64},
             Block{"lengths", BlockKind::Data, 1 * KiB},
             Block{"stack", BlockKind::Stack, 256}});
  TraceBuilder b(p);
  Rng rng(0x5aa5'1011);
  const std::uint64_t chunks = scaled(9'000, div);
  const std::uint32_t w_words = p.block(3).size_words();  // 64
  b.call(0, 40);
  b.fetch(300);
  for (std::uint64_t c = 0; c < chunks; ++c) {
    b.fetch(30);
    b.read(2, 8, static_cast<std::uint32_t>((c * 8) %
                                            p.block(2).size_words()));
    b.call(1, 96, 12);
    b.write(3, w_words);       // expand message schedule
    b.fetch(300, 1);
    b.read(3, 80, 0);          // 80 rounds read W
    b.write(3, 16, 0);         // and update it
    b.read(4, 8, 0);
    b.write(4, 16, 0);         // digest words churn (wraps the block)
    b.ret(12);
    // Length bookkeeping: diffuse, stays in STT-RAM.
    if (c % 4 == 0)
      b.write(5, 2, static_cast<std::uint32_t>((c / 4) %
                                               p.block(5).size_words()));
  }
  b.ret();
  Trace trace = b.take();
  return Workload{std::move(p), std::move(trace)};
}

// ---- crc32: long read stream + one red-hot accumulator word -----------
Workload make_crc32(std::uint64_t div) {
  Program p("crc32",
            {Block{"main", BlockKind::Code, 2 * KiB},
             Block{"crc", BlockKind::Code, 1 * KiB},
             Block{"stream", BlockKind::Data, 8 * KiB},
             Block{"crc_tbl", BlockKind::Data, 2 * KiB},
             Block{"acc", BlockKind::Data, 64},
             Block{"block_sums", BlockKind::Data, 1 * KiB},
             Block{"stack", BlockKind::Stack, 256}});
  TraceBuilder b(p);
  Rng rng(0xc3c3'2023);
  const std::uint64_t passes = scaled(240, div);
  const std::uint32_t stream_words = p.block(2).size_words();  // 1024
  b.call(0, 32);
  b.fetch(250);
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    for (std::uint32_t chunk = 0; chunk < stream_words; chunk += 128) {
      b.call(1, 24, 2);
      b.fetch(520);
      b.read(2, 128, chunk);
      b.read(3, 96, rand_off(rng, p, 3));  // table lookups
      b.read(4, 64, 0);                    // accumulator spins (wraps)
      b.write(4, 64, 0);
      b.ret(2);
      // Rolling per-chunk checksum journal: diffuse STT-RAM writes.
      b.write(5, 2, static_cast<std::uint32_t>((pass * 12 + chunk / 128) %
                                               p.block(5).size_words()));
    }
  }
  b.ret();
  Trace trace = b.take();
  return Workload{std::move(p), std::move(trace)};
}

// ---- fft: in-place butterflies — the write-heaviest kernel ------------
Workload make_fft(std::uint64_t div) {
  Program p("fft",
            {Block{"main", BlockKind::Code, 4 * KiB},
             Block{"fft_fn", BlockKind::Code, 4 * KiB},
             Block{"twiddle_gen", BlockKind::Code, 1 * KiB},
             Block{"re", BlockKind::Data, 4 * KiB},  // > 2 KB regions
             Block{"im", BlockKind::Data, 4 * KiB},  // > 2 KB regions
             Block{"twiddle", BlockKind::Data, 2 * KiB},
             Block{"stack", BlockKind::Stack, 512}});
  TraceBuilder b(p);
  Rng rng(0xff7'0512);
  const std::uint64_t transforms = scaled(1'200, div);
  const std::uint32_t n_words = p.block(3).size_words();  // 512
  b.call(0, 56);
  b.fetch(900);  // argument parsing / buffer setup in main
  b.call(2, 32, 2);
  b.fetch(2'000);
  b.write(5, p.block(5).size_words());
  b.ret(2);
  for (std::uint64_t tr = 0; tr < transforms; ++tr) {
    b.call(1, 88, 5);
    for (std::uint32_t stage = 0; stage < 9; ++stage) {  // log2(512)
      b.fetch(950);
      b.read(5, 64, static_cast<std::uint32_t>((stage * 32) %
                                               p.block(5).size_words()));
      b.read(3, n_words / 4, rand_off(rng, p, 3));
      b.read(4, n_words / 4, rand_off(rng, p, 4));
      b.write(3, n_words / 4, rand_off(rng, p, 3));
      b.write(4, n_words / 4, rand_off(rng, p, 4));
    }
    b.ret(5);
  }
  b.ret();
  Trace trace = b.take();
  return Workload{std::move(p), std::move(trace)};
}

// ---- adpcm: byte-stream codec with a tiny boiling state block ---------
Workload make_adpcm(std::uint64_t div) {
  Program p("adpcm",
            {Block{"main", BlockKind::Code, 2 * KiB},
             Block{"coder", BlockKind::Code, 2 * KiB},
             Block{"pcm_in", BlockKind::Data, 10 * KiB},
             Block{"adpcm_out", BlockKind::Data, 3 * KiB},  // > regions
             Block{"state", BlockKind::Data, 64},
             Block{"history", BlockKind::Data, 512},
             Block{"stack", BlockKind::Stack, 256}});
  TraceBuilder b(p);
  Rng rng(0xadc0'de00);
  const std::uint64_t frames = scaled(2'600, div);
  b.call(0, 32);
  b.fetch(220);
  for (std::uint64_t f = 0; f < frames; ++f) {
    b.call(1, 40, 2);
    b.fetch(620, 1);
    b.read(2, 160, static_cast<std::uint32_t>((f * 160) %
                                              p.block(2).size_words()));
    b.read(4, 160, 0);   // predictor state consulted per sample
    b.write(4, 160, 0);  // and updated per sample (wraps 8 words)
    b.write(3, 40, static_cast<std::uint32_t>((f * 40) %
                                              p.block(3).size_words()));
    // Long-term prediction history: diffuse, stays in STT-RAM.
    b.write(5, 4, static_cast<std::uint32_t>((f * 4) %
                                             p.block(5).size_words()));
    b.ret(2);
  }
  b.ret();
  Trace trace = b.take();
  return Workload{std::move(p), std::move(trace)};
}

// ---- rijndael: S-box reads, round-key reads, boiling cipher state -----
Workload make_rijndael(std::uint64_t div) {
  Program p("rijndael",
            {Block{"main", BlockKind::Code, 4 * KiB},
             Block{"aes_rounds", BlockKind::Code, 5 * KiB},
             Block{"keyexp", BlockKind::Code, 2 * KiB},
             Block{"sbox", BlockKind::Data, 2 * KiB},
             Block{"roundkeys", BlockKind::Data, 1 * KiB},
             Block{"buf_in", BlockKind::Data, 4 * KiB},
             Block{"buf_out", BlockKind::Data, 4 * KiB},
             Block{"state", BlockKind::Data, 128},
             Block{"stack", BlockKind::Stack, 256}});
  TraceBuilder b(p);
  Rng rng(0xae5'1337);
  const std::uint64_t aes_blocks = scaled(4'200, div);
  b.call(0, 48);
  b.call(2, 64, 4);  // key expansion, once
  b.fetch(1'500);
  b.read(3, 240, 0);
  b.write(4, p.block(4).size_words());
  b.ret(4);
  for (std::uint64_t blk = 0; blk < aes_blocks; ++blk) {
    b.fetch(45);
    b.read(5, 2, static_cast<std::uint32_t>((blk * 2) %
                                            p.block(5).size_words()));
    b.call(1, 72, 6);
    for (std::uint32_t round = 0; round < 10; ++round) {
      b.fetch(60, 1);
      b.read(3, 16, rand_off(rng, p, 3));  // S-box lookups
      b.read(4, 4, static_cast<std::uint32_t>((round * 4) %
                                              p.block(4).size_words()));
      b.read(7, 16, 0);
      b.write(7, 16, 0);  // state churns every round
    }
    b.ret(6);
    // Ciphertext stream: diffuse writes that stay in STT-RAM.
    b.write(6, 2, static_cast<std::uint32_t>((blk * 2) %
                                             p.block(6).size_words()));
  }
  b.ret();
  Trace trace = b.take();
  return Workload{std::move(p), std::move(trace)};
}

}  // namespace

Workload make_benchmark(MiBenchmark bench, std::uint64_t scale_divisor) {
  FTSPM_REQUIRE(scale_divisor >= 1, "scale divisor must be >= 1");
  switch (bench) {
    case MiBenchmark::Basicmath: return make_basicmath(scale_divisor);
    case MiBenchmark::Bitcount: return make_bitcount(scale_divisor);
    case MiBenchmark::Qsort: return make_qsort(scale_divisor);
    case MiBenchmark::Susan: return make_susan(scale_divisor);
    case MiBenchmark::Jpeg: return make_jpeg(scale_divisor);
    case MiBenchmark::Dijkstra: return make_dijkstra(scale_divisor);
    case MiBenchmark::StringSearch: return make_stringsearch(scale_divisor);
    case MiBenchmark::Sha: return make_sha(scale_divisor);
    case MiBenchmark::Crc32: return make_crc32(scale_divisor);
    case MiBenchmark::Fft: return make_fft(scale_divisor);
    case MiBenchmark::Adpcm: return make_adpcm(scale_divisor);
    case MiBenchmark::Rijndael: return make_rijndael(scale_divisor);
  }
  throw InvalidArgument("unknown benchmark");
}

}  // namespace ftspm
