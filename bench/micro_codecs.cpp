// Codec microbenchmarks (google-benchmark): raw throughput of the
// parity and SEC-DED encode/decode paths the simulator charges every
// protected SPM access for, plus the Monte-Carlo strike classifier.
#include <benchmark/benchmark.h>

#include "bench_io.h"

#include "ftspm/ecc/parity_codec.h"
#include "ftspm/ecc/secded_codec.h"
#include "ftspm/fault/injector.h"
#include "ftspm/oracle/strike_oracle.h"
#include "ftspm/util/rng.h"

namespace {

using namespace ftspm;

void BM_ParityEncode(benchmark::State& state) {
  Rng rng(1);
  std::uint64_t data = rng.next_u64();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParityCodec::encode(data));
    ++data;
  }
}
BENCHMARK(BM_ParityEncode);

void BM_ParityDecode(benchmark::State& state) {
  const ParityWord word = ParityCodec::encode(0xDEADBEEF12345678ULL);
  for (auto _ : state) benchmark::DoNotOptimize(ParityCodec::decode(word));
}
BENCHMARK(BM_ParityDecode);

void BM_SecDedEncode(benchmark::State& state) {
  Rng rng(2);
  std::uint64_t data = rng.next_u64();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SecDedCodec::encode(data));
    ++data;
  }
}
BENCHMARK(BM_SecDedEncode);

void BM_SecDedDecodeClean(benchmark::State& state) {
  const SecDedWord word = SecDedCodec::encode(0xDEADBEEF12345678ULL);
  for (auto _ : state) benchmark::DoNotOptimize(SecDedCodec::decode(word));
}
BENCHMARK(BM_SecDedDecodeClean);

void BM_SecDedDecodeCorrecting(benchmark::State& state) {
  SecDedWord word = SecDedCodec::encode(0xDEADBEEF12345678ULL);
  SecDedCodec::flip_bit(word, 17);
  for (auto _ : state) benchmark::DoNotOptimize(SecDedCodec::decode(word));
}
BENCHMARK(BM_SecDedDecodeCorrecting);

void BM_ClassifyStrike(benchmark::State& state) {
  const InjectionRegion region{RegionGeometry(2048, 8),
                               ProtectionKind::SecDed, 1.0, 1};
  Rng rng(3);
  std::uint64_t bit = 0;
  const std::uint64_t bits = region.geometry.physical_bits();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        classify_strike(region, bit % bits,
                        static_cast<std::uint32_t>(state.range(0)), rng));
    bit += 37;
  }
}
BENCHMARK(BM_ClassifyStrike)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  return ftspm::bench::run_google_benchmark(argc, argv);
}
