// Byte-identity goldens for TraceGenerator::Generate. The values were
// recorded from the serial generator (one request after another, then a
// std::sort of the records by arrival) before it was spread over threads, so
// they pin the chunked generator to exactly that output: every digested
// field, the payload sums, and the order of tied arrivals.
//
// Sizes straddle the chunk grid (TraceGenerator::kChunkRequests): empty, one
// request, one chunk minus/at/plus one, several chunks with a remainder, and
// a 200k trace. The "ties" config squeezes the arrivals into a 3 us window,
// so almost every record ties with thousands of others and only the sort's
// exact permutation reproduces the digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/fleet_sim.h"
#include "src/trace/generator.h"

namespace faascost {
namespace {

constexpr int64_t kChunk = 16'384;
static_assert(TraceGenerator::kChunkRequests == kChunk,
              "the goldens' sizes straddle this chunk grid");

TraceGenConfig GoldenConfig(const std::string& name) {
  TraceGenConfig cfg;
  cfg.num_functions = 1'000;
  if (name == "payloads") {
    cfg.payload_request_mean_kb = 4.0;
    cfg.payload_response_mean_kb = 16.0;
  } else if (name == "failures") {
    cfg.failure_rate_mean = 0.05;
  } else if (name == "cold0") {
    cfg.cold_start_fraction = 0.0;
  } else if (name == "cold1") {
    cfg.cold_start_fraction = 1.0;
  } else if (name == "ties") {
    cfg.window = 3;
    cfg.payload_request_mean_kb = 4.0;
    cfg.payload_response_mean_kb = 16.0;
  }
  return cfg;
}

struct GoldenCase {
  const char* config;
  int64_t requests;
  uint64_t digest;  // FleetEngine::DigestTrace (leaves out the payloads).
  int64_t req_bytes;
  int64_t resp_bytes;
  // Sum over slots i of (i + 1) * (31 * req_bytes + resp_bytes), modulo
  // 2^64: pins where each payload lands, which the plain sums cannot.
  uint64_t payload_order;
};

// clang-format off
const GoldenCase kGoldens[] = {
    {"base", 0, 0x3f5839e154e1af0fULL, 0, 0, 0x0000000000000000ULL},
    {"base", 1, 0x8ad477cdf179c18aULL, 0, 0, 0x0000000000000000ULL},
    {"base", 16383, 0xf1974b559f8c6313ULL, 0, 0, 0x0000000000000000ULL},
    {"base", 16384, 0x52f7fb2f9af5458aULL, 0, 0, 0x0000000000000000ULL},
    {"base", 16385, 0xe60bc4812d533a50ULL, 0, 0, 0x0000000000000000ULL},
    {"base", 49159, 0x2b9a63734db791a6ULL, 0, 0, 0x0000000000000000ULL},
    {"base", 200000, 0x9fbff51cf7d6a355ULL, 0, 0, 0x0000000000000000ULL},
    {"payloads", 0, 0x3f5839e154e1af0fULL, 0, 0, 0x0000000000000000ULL},
    {"payloads", 1, 0x8ad477cdf179c18aULL, 15649, 33790, 0x000000000007eafdULL},
    {"payloads", 16383, 0xf1974b559f8c6313ULL, 68158776, 269920198, 0x000011b2b53f7a3fULL},
    {"payloads", 16384, 0x52f7fb2f9af5458aULL, 68161087, 269958889, 0x000011b323dbd9d5ULL},
    {"payloads", 16385, 0xe60bc4812d533a50ULL, 68161768, 270005257, 0x000011b3a7eb8d4bULL},
    {"payloads", 49159, 0x2b9a63734db791a6ULL, 203948519, 810359804, 0x00009f9595d2cc5fULL},
    {"payloads", 200000, 0x9fbff51cf7d6a355ULL, 824363803, 3279523480, 0x000a3d97116ff751ULL},
    {"failures", 0, 0x3f5839e154e1af0fULL, 0, 0, 0x0000000000000000ULL},
    {"failures", 1, 0x6cf4601efa8c4c41ULL, 0, 0, 0x0000000000000000ULL},
    {"failures", 16383, 0xc67aa68a6b7fb7b1ULL, 0, 0, 0x0000000000000000ULL},
    {"failures", 16384, 0x7e85fddfb7559874ULL, 0, 0, 0x0000000000000000ULL},
    {"failures", 16385, 0x73a4623d828191abULL, 0, 0, 0x0000000000000000ULL},
    {"failures", 49159, 0x7f597b72cb849441ULL, 0, 0, 0x0000000000000000ULL},
    {"cold0", 0, 0x3f5839e154e1af0fULL, 0, 0, 0x0000000000000000ULL},
    {"cold0", 1, 0x8ad477cdf179c18aULL, 0, 0, 0x0000000000000000ULL},
    {"cold0", 16383, 0xd85e63f4901a2c51ULL, 0, 0, 0x0000000000000000ULL},
    {"cold0", 16384, 0x2c2ba09e46079546ULL, 0, 0, 0x0000000000000000ULL},
    {"cold0", 16385, 0xff98c10412e9ed0fULL, 0, 0, 0x0000000000000000ULL},
    {"cold0", 49159, 0xa6b334c6a79c7d0dULL, 0, 0, 0x0000000000000000ULL},
    {"cold1", 0, 0x3f5839e154e1af0fULL, 0, 0, 0x0000000000000000ULL},
    {"cold1", 1, 0xbeaa72447ac4c99bULL, 0, 0, 0x0000000000000000ULL},
    {"cold1", 16383, 0x98fcc2e78aceeb5dULL, 0, 0, 0x0000000000000000ULL},
    {"cold1", 16384, 0x956ec787e1c8f18eULL, 0, 0, 0x0000000000000000ULL},
    {"cold1", 16385, 0x91150d4d0f1fcf26ULL, 0, 0, 0x0000000000000000ULL},
    {"cold1", 49159, 0xeb1fe5fd71770bd8ULL, 0, 0, 0x0000000000000000ULL},
    {"ties", 0, 0x3f5839e154e1af0fULL, 0, 0, 0x0000000000000000ULL},
    {"ties", 1, 0x91d857e3683dafb9ULL, 15649, 33790, 0x000000000007eafdULL},
    {"ties", 16383, 0x93c97ad7c88dac93ULL, 68158776, 269920198, 0x000011daa68917faULL},
    {"ties", 16384, 0x207bcec0c7378374ULL, 68161087, 269958889, 0x000011daafbb71cfULL},
    {"ties", 16385, 0xf2fd604554018c8cULL, 68161768, 270005257, 0x000011cbf1131387ULL},
    {"ties", 49159, 0xb452df4df4b50770ULL, 203948519, 810359804, 0x00009f52a7e11d6cULL},
    {"ties", 200000, 0x8d6de70349b59179ULL, 824363803, 3279523480, 0x000a3bbbf380c7a3ULL},
};
// clang-format on

TEST(TraceGeneratorGolden, MatchesSerialGenerator) {
  for (const GoldenCase& g : kGoldens) {
    TraceGenConfig cfg = GoldenConfig(g.config);
    cfg.num_requests = g.requests;
    const std::vector<RequestRecord> trace = TraceGenerator(cfg, 1).Generate();
    int64_t req_bytes = 0;
    int64_t resp_bytes = 0;
    uint64_t payload_order = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
      const RequestRecord& r = trace[i];
      req_bytes += r.req_bytes;
      resp_bytes += r.resp_bytes;
      payload_order += (i + 1) * (static_cast<uint64_t>(r.req_bytes) * 31 +
                                  static_cast<uint64_t>(r.resp_bytes));
    }
    SCOPED_TRACE(std::string(g.config) + " x " + std::to_string(g.requests));
    ASSERT_EQ(trace.size(), static_cast<size_t>(g.requests));
    EXPECT_EQ(FleetEngine::DigestTrace(trace), g.digest);
    EXPECT_EQ(req_bytes, g.req_bytes);
    EXPECT_EQ(resp_bytes, g.resp_bytes);
    EXPECT_EQ(payload_order, g.payload_order);
  }
}

}  // namespace
}  // namespace faascost
