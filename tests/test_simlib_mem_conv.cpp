// Behaviour tests for the memory and conversion families, including the
// preserved historical bugs (calloc multiplication wrap, ato* silence) and
// the heap entry points' errno discipline.
#include <gtest/gtest.h>

#include <cmath>

#include "testbed.hpp"

namespace healers {
namespace {

using testbed::F;
using testbed::I;
using testbed::P;

struct MemConvFixture : ::testing::Test {
  std::unique_ptr<linker::Process> proc = testbed::make_process();
  mem::AddressSpace& mem() { return proc->machine().mem(); }
  mem::Addr str(const std::string& text) { return proc->alloc_cstring(text); }
  mem::Addr buf(std::uint64_t size) { return proc->scratch(size); }
};

// --- mem* -------------------------------------------------------------------

TEST_F(MemConvFixture, MemcpyCopiesExactly) {
  const mem::Addr src = str("0123456789");
  const mem::Addr dst = buf(16);
  const auto ret = proc->call("memcpy", {P(dst), P(src), I(5)});
  EXPECT_EQ(ret.as_ptr(), dst);
  EXPECT_EQ(mem().load8(dst + 4), '4');
  EXPECT_EQ(mem().load8(dst + 5), 0u);  // untouched
}

TEST_F(MemConvFixture, MemcpyPastRegionFaults) {
  const mem::Addr dst = buf(4);
  EXPECT_THROW(proc->call("memcpy", {P(dst), P(str("0123456789")), I(10)}), AccessFault);
}

TEST_F(MemConvFixture, MemcpyHugeSizeFaultsQuicklyNotHangs) {
  const mem::Addr dst = buf(64);
  const mem::Addr src = buf(64);
  EXPECT_THROW(proc->call("memcpy", {P(dst), P(src), I(1LL << 40)}), AccessFault);
}

TEST_F(MemConvFixture, MemmoveHandlesOverlapBothDirections) {
  const mem::Addr region = buf(32);
  mem().write_cstring(region, "abcdef");
  proc->call("memmove", {P(region + 2), P(region), I(4)});  // forward overlap
  EXPECT_EQ(mem().read_cstring(region), "ababcd");
  mem().write_cstring(region, "abcdef");
  proc->call("memmove", {P(region), P(region + 2), I(4)});  // backward overlap
  EXPECT_EQ(mem().read_cstring(region), "cdefef");
}

TEST_F(MemConvFixture, MemsetFillsAndReturnsDest) {
  const mem::Addr dst = buf(16);
  EXPECT_EQ(proc->call("memset", {P(dst), I(0x5A), I(8)}).as_ptr(), dst);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(mem().load8(dst + i), 0x5Au);
  EXPECT_EQ(mem().load8(dst + 8), 0u);
}

TEST_F(MemConvFixture, MemcmpComparesBytes) {
  EXPECT_EQ(proc->call("memcmp", {P(str("abc")), P(str("abc")), I(3)}).as_int(), 0);
  EXPECT_LT(proc->call("memcmp", {P(str("abc")), P(str("abd")), I(3)}).as_int(), 0);
  EXPECT_EQ(proc->call("memcmp", {P(str("aXc")), P(str("aYc")), I(1)}).as_int(), 0);
}

TEST_F(MemConvFixture, MemchrFindsWithinBound) {
  const mem::Addr s = str("hello");
  EXPECT_EQ(proc->call("memchr", {P(s), I('l'), I(5)}).as_ptr(), s + 2);
  EXPECT_EQ(proc->call("memchr", {P(s), I('l'), I(2)}).as_ptr(), 0u);
}

// --- allocation entry points -------------------------------------------------

TEST_F(MemConvFixture, MallocFreeRoundTrip) {
  const mem::Addr p = proc->call("malloc", {I(64)}).as_ptr();
  ASSERT_NE(p, 0u);
  EXPECT_TRUE(proc->machine().heap().is_live(p));
  proc->call("free", {P(p)});
  EXPECT_FALSE(proc->machine().heap().is_live(p));
}

TEST_F(MemConvFixture, MallocFailureSetsEnomem) {
  EXPECT_EQ(proc->call("malloc", {I(1LL << 40)}).as_ptr(), 0u);
  EXPECT_EQ(proc->machine().err(), simlib::kENOMEM);
}

TEST_F(MemConvFixture, CallocZeroesMemory) {
  const mem::Addr p = proc->call("calloc", {I(4), I(8)}).as_ptr();
  ASSERT_NE(p, 0u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(mem().load8(p + i), 0u);
}

TEST_F(MemConvFixture, CallocMultiplicationWrapsSilently) {
  // Historical bug preserved: nmemb*size wraps to 0 -> tiny allocation
  // "succeeds". The security wrapper fixes this; the base library must not.
  const auto half = static_cast<std::int64_t>((~std::uint64_t{0} / 2) + 1);
  const mem::Addr p = proc->call("calloc", {I(half), I(2)}).as_ptr();
  EXPECT_NE(p, 0u);  // 2 * (SIZE_MAX/2+1) == 0 (mod 2^64)
}

TEST_F(MemConvFixture, ReallocPreservesPrefix) {
  const mem::Addr p = proc->call("malloc", {I(8)}).as_ptr();
  mem().write_cstring(p, "1234567");
  const mem::Addr q = proc->call("realloc", {P(p), I(64)}).as_ptr();
  EXPECT_EQ(mem().read_cstring(q), "1234567");
}

TEST_F(MemConvFixture, FreeOfGarbageAborts) {
  EXPECT_THROW(proc->call("free", {P(buf(32))}), SimAbort);
}

TEST_F(MemConvFixture, FreeNullOk) {
  EXPECT_NO_THROW(proc->call("free", {P(0)}));
}

// --- conversions --------------------------------------------------------------

TEST_F(MemConvFixture, AtoiParsesDecimalWithSignAndSpace) {
  EXPECT_EQ(proc->call("atoi", {P(str("42"))}).as_int(), 42);
  EXPECT_EQ(proc->call("atoi", {P(str("  -17"))}).as_int(), -17);
  EXPECT_EQ(proc->call("atoi", {P(str("+8abc"))}).as_int(), 8);
  EXPECT_EQ(proc->call("atoi", {P(str("abc"))}).as_int(), 0);
  EXPECT_EQ(proc->call("atoi", {P(str(""))}).as_int(), 0);
}

TEST_F(MemConvFixture, AtoiWrapsAtIntWidth) {
  EXPECT_EQ(proc->call("atoi", {P(str("4294967296"))}).as_int(), 0);  // 2^32 wraps
  EXPECT_EQ(proc->call("atoi", {P(str("2147483648"))}).as_int(), -2147483648LL);
}

TEST_F(MemConvFixture, AtoiNullCrashes) {
  EXPECT_THROW(proc->call("atoi", {P(0)}), AccessFault);
}

TEST_F(MemConvFixture, AtolUsesFullWidth) {
  EXPECT_EQ(proc->call("atol", {P(str("4294967296"))}).as_int(), 4294967296LL);
}

TEST_F(MemConvFixture, StrtolReportsEndptrAndValue) {
  const mem::Addr s = str("  123xyz");
  const mem::Addr endptr = buf(8);
  EXPECT_EQ(proc->call("strtol", {P(s), P(endptr), I(10)}).as_int(), 123);
  EXPECT_EQ(mem().load64(endptr), s + 5);
}

TEST_F(MemConvFixture, StrtolParsesBases) {
  EXPECT_EQ(proc->call("strtol", {P(str("ff")), P(0), I(16)}).as_int(), 255);
  EXPECT_EQ(proc->call("strtol", {P(str("0x1A")), P(0), I(0)}).as_int(), 26);
  EXPECT_EQ(proc->call("strtol", {P(str("017")), P(0), I(0)}).as_int(), 15);
  EXPECT_EQ(proc->call("strtol", {P(str("101")), P(0), I(2)}).as_int(), 5);
}

TEST_F(MemConvFixture, StrtolBadBaseSetsEinval) {
  proc->machine().set_err(0);
  EXPECT_EQ(proc->call("strtol", {P(str("1")), P(0), I(1)}).as_int(), 0);
  EXPECT_EQ(proc->machine().err(), simlib::kEINVAL);
}

TEST_F(MemConvFixture, StrtolOverflowClampsAndSetsErange) {
  proc->machine().set_err(0);
  const auto v = proc->call("strtol", {P(str("999999999999999999999999")), P(0), I(10)});
  EXPECT_EQ(v.as_int(), 0x7fffffffffffffffLL);
  EXPECT_EQ(proc->machine().err(), simlib::kERANGE);
  proc->machine().set_err(0);
  const auto neg = proc->call("strtol", {P(str("-999999999999999999999999")), P(0), I(10)});
  EXPECT_EQ(neg.as_int(), static_cast<std::int64_t>(0x8000000000000000ULL));
  EXPECT_EQ(proc->machine().err(), simlib::kERANGE);
}

TEST_F(MemConvFixture, StrtolDetectsMultiplyOverflow) {
  // The last multiply wraps to a value above the previous magnitude, so a
  // smaller-than-before test misses it; C clamps to LONG_MAX with ERANGE.
  proc->machine().set_err(0);
  const auto v = proc->call("strtol", {P(str("2053793259636879571563")), P(0), I(10)});
  EXPECT_EQ(v.as_int(), 0x7fffffffffffffffLL);
  EXPECT_EQ(proc->machine().err(), simlib::kERANGE);
  proc->machine().set_err(0);
  const auto u = proc->call("strtoul", {P(str("2053793259636879571563")), P(0), I(10)});
  EXPECT_EQ(static_cast<std::uint64_t>(u.as_int()), ~std::uint64_t{0});
  EXPECT_EQ(proc->machine().err(), simlib::kERANGE);
  // atol keeps its silent wrap: the magnitude modulo 2^64.
  EXPECT_EQ(proc->call("atol", {P(str("2053793259636879571563"))}).as_int(),
            6204667455119342187LL);
}

TEST_F(MemConvFixture, StrtolNoDigitsLeavesEndptrAtStart) {
  const mem::Addr s = str("zzz");
  const mem::Addr endptr = buf(8);
  EXPECT_EQ(proc->call("strtol", {P(s), P(endptr), I(10)}).as_int(), 0);
  EXPECT_EQ(mem().load64(endptr), s);
}

TEST_F(MemConvFixture, StrtoulWrapsNegatives) {
  EXPECT_EQ(static_cast<std::uint64_t>(proc->call("strtoul", {P(str("-1")), P(0), I(10)}).as_int()),
            ~std::uint64_t{0});
}

TEST_F(MemConvFixture, StrtodParsesFloats) {
  EXPECT_DOUBLE_EQ(proc->call("strtod", {P(str("3.5")), P(0)}).as_double(), 3.5);
  EXPECT_DOUBLE_EQ(proc->call("strtod", {P(str("-2.25e2")), P(0)}).as_double(), -225.0);
  EXPECT_DOUBLE_EQ(proc->call("strtod", {P(str("  .5x")), P(0)}).as_double(), 0.5);
}

TEST_F(MemConvFixture, StrtodHugeExponentOverflowsToInfinity) {
  proc->machine().set_err(0);
  const double v = proc->call("strtod", {P(str("1e99999999999")), P(0)}).as_double();
  EXPECT_TRUE(std::isinf(v));
  EXPECT_GT(v, 0.0);
  EXPECT_EQ(proc->machine().err(), simlib::kERANGE);
  EXPECT_EQ(proc->call("strtod", {P(str("1e-99999999999")), P(0)}).as_double(), 0.0);
}

TEST_F(MemConvFixture, StrtodZeroMantissaStaysZeroWhateverTheExponent) {
  for (const char* text : {"0e400", "0.0e500", "-0e99999999999"}) {
    const mem::Addr s = str(text);
    const mem::Addr endptr = buf(8);
    proc->machine().set_err(simlib::kEINVAL);
    const double v = proc->call("strtod", {P(s), P(endptr)}).as_double();
    EXPECT_EQ(v, 0.0) << text;
    EXPECT_EQ(std::signbit(v), text[0] == '-') << text;
    EXPECT_EQ(proc->machine().err(), simlib::kEINVAL) << text;
    EXPECT_EQ(mem().load64(endptr), s + std::string(text).size()) << text;
  }
}

TEST_F(MemConvFixture, StrtodEndptrAfterFloat) {
  const mem::Addr s = str("1.5e2rest");
  const mem::Addr endptr = buf(8);
  proc->call("strtod", {P(s), P(endptr)});
  EXPECT_EQ(mem().load64(endptr), s + 5);
}

TEST_F(MemConvFixture, AtofMatchesStrtod) {
  EXPECT_DOUBLE_EQ(proc->call("atof", {P(str("6.75"))}).as_double(), 6.75);
}

TEST_F(MemConvFixture, AbsAndLabs) {
  EXPECT_EQ(proc->call("abs", {I(-5)}).as_int(), 5);
  EXPECT_EQ(proc->call("abs", {I(5)}).as_int(), 5);
  // abs(INT_MIN) wraps (two's complement), faithfully UB-shaped.
  EXPECT_EQ(proc->call("abs", {I(-2147483648LL)}).as_int(), -2147483648LL);
  EXPECT_EQ(proc->call("labs", {I(-42)}).as_int(), 42);
}

}  // namespace
}  // namespace healers
