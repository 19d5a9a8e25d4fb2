// CeiState keeps its scheduling state in one 64-byte cache line: the
// counters, the flags and the capture and failure words of EIs 0-63. A CEI
// wider than 64 EIs keeps both sets' further words in one owned spill
// block. These cases pin the bit sets on both sides of that boundary and
// the value semantics of the owned block.

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/cei.h"
#include "policy/candidate.h"

namespace webmon {
namespace {

Cei WideCei(uint32_t num_eis) {
  Cei cei;
  cei.id = num_eis;
  for (uint32_t i = 0; i < num_eis; ++i) {
    cei.eis.push_back(ExecutionInterval{i, i % 7, 0, 10});
  }
  return cei;
}

// Each EI's expected (captured, failed) bits.
using Bits = std::vector<std::pair<bool, bool>>;

void ExpectBits(const CeiState& state, const Bits& bits) {
  ASSERT_EQ(state.num_eis, bits.size());
  for (uint32_t i = 0; i < state.num_eis; ++i) {
    EXPECT_EQ(state.Captured(i), bits[i].first) << "EI " << i;
    EXPECT_EQ(state.Failed(i), bits[i].second) << "EI " << i;
    EXPECT_EQ(state.Spent(i), bits[i].first || bits[i].second) << "EI " << i;
  }
}

// Sets every EI of `captured` captured and of `failed` failed, in `state`
// and in the expectation.
void SetBits(CeiState& state, Bits& bits,
             const std::vector<uint32_t>& captured,
             const std::vector<uint32_t>& failed) {
  for (uint32_t i : captured) {
    state.SetCaptured(i);
    bits[i].first = true;
  }
  for (uint32_t i : failed) {
    state.SetFailed(i);
    bits[i].second = true;
  }
}

// The header asserts the size and alignment; a deque of states, as the
// scheduler keeps them, must honour the alignment.
TEST(CeiStateTest, FillsOneCacheLine) {
  const Cei cei = WideCei(3);
  std::deque<CeiState> states;
  for (int i = 0; i < 20; ++i) states.emplace_back(&cei);
  for (const CeiState& s : states) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(&s) % 64, 0u);
  }
}

TEST(CeiStateTest, InlineBitsSetAndTest) {
  const Cei cei = WideCei(10);
  CeiState state(&cei);
  EXPECT_EQ(state.num_eis, 10u);
  EXPECT_EQ(state.required_captures, 10u);
  Bits bits(10);
  ExpectBits(state, bits);
  SetBits(state, bits, {0, 7}, {3});
  ExpectBits(state, bits);
  // Setting a bit twice, or the other set's bit of the same EI, touches
  // nothing else.
  SetBits(state, bits, {7}, {7, 9});
  ExpectBits(state, bits);
}

TEST(CeiStateTest, SpillsBeyond64Eis) {
  for (const uint32_t width : {64u, 65u, 128u, 129u, 200u}) {
    const Cei cei = WideCei(width);
    CeiState state(&cei);
    Bits bits(width);
    ExpectBits(state, bits);
    std::vector<uint32_t> captured = {0, 63};
    std::vector<uint32_t> failed = {1, 62};
    for (const uint32_t i : {64u, 65u, 127u, 128u, 130u, 199u}) {
      if (i < width) captured.push_back(i);
      if (i + 1 < width) failed.push_back(i + 1);
    }
    captured.push_back(width - 1);
    SetBits(state, bits, captured, failed);
    ExpectBits(state, bits);
  }
}

TEST(CeiStateTest, CopiesAreIndependent) {
  const Cei cei = WideCei(130);
  CeiState a(&cei);
  Bits a_bits(130);
  SetBits(a, a_bits, {2, 69, 129}, {5, 100});
  a.num_captured = 3;
  a.index = 7;

  CeiState b = a;
  Bits b_bits = a_bits;
  ExpectBits(b, b_bits);
  EXPECT_EQ(b.num_captured, 3u);
  EXPECT_EQ(b.index, 7u);
  SetBits(b, b_bits, {70}, {128});
  ExpectBits(b, b_bits);
  ExpectBits(a, a_bits);  // value semantics: the spill block is not shared

  const Cei narrow_cei = WideCei(4);
  CeiState c(&narrow_cei);
  c = a;
  ExpectBits(c, a_bits);
  SetBits(c, a_bits, {64}, {});
  a_bits[64].first = false;
  ExpectBits(a, a_bits);
}

TEST(CeiStateTest, MovesKeepTheBits) {
  const Cei cei = WideCei(130);
  CeiState a(&cei);
  Bits bits(130);
  SetBits(a, bits, {0, 64, 129}, {63, 65});

  CeiState b = std::move(a);
  ExpectBits(b, bits);

  const Cei narrow_cei = WideCei(4);
  CeiState c(&narrow_cei);
  c = std::move(b);
  ExpectBits(c, bits);

  // A moved-from state may be assigned to again.
  b = CeiState(&narrow_cei);
  ExpectBits(b, Bits(4));
}

TEST(CeiStateTest, SelfAssignmentKeepsTheBits) {
  const Cei cei = WideCei(130);
  CeiState a(&cei);
  Bits bits(130);
  SetBits(a, bits, {1, 66, 128}, {2, 127});
  CeiState& alias = a;
  a = alias;
  ExpectBits(a, bits);
  a = std::move(alias);
  ExpectBits(a, bits);
}

}  // namespace
}  // namespace webmon
