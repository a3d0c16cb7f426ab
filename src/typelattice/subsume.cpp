#include "typelattice/subsume.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace healers::lattice {

using parser::TypeClass;
using simlib::SimValue;

namespace {

constexpr std::size_t idx(TestTypeId id) noexcept { return static_cast<std::size_t>(id); }

struct Edge {
  TestTypeId hostile;  // pass(hostile) ⇒ pass(safe)
  TestTypeId safe;
};

// Direct dominance edges, hostile → safe. Each edge is a claim that every
// catalog function which passes all cases of `hostile` also passes all
// cases of `safe`, justified against the simulated memory model:
//
// Pointer class. kWildPtr values are unmapped, so a pass means the callee
// never dereferenced the argument on that path — every other pointer value
// passes too. The mapped-but-flawed types order by the operations they
// tolerate: kReadOnlyCString / kTinyWritable / kUntermBuf each bound reads
// or writes at least as tightly as kFreedPtr (whose chunk sits inside the
// one heap arena, where stray reads see a terminator within the free-list
// header and in-arena overflow is silent). kFreedPtr and kMisaligned are
// deliberately INCOMPARABLE: for memory-access roles a freed chunk bounds
// at least as tightly as a misaligned interior pointer, but for
// heap-management roles the order inverts — realloc accepts a freed
// pointer (still a block-aligned address the allocator recognizes) while
// rejecting anything that is not a block start, so pass(freed) must not
// imply pass(misaligned). kMisaligned (mapped, readable, writable,
// terminated) dominates kValidWritable, which dominates kValidCString.
// kNull passes
// only for allownull roles (free, realloc, endptr), all of which accept a
// pristine heap string. Between the two unmapped families, kWildPtr →
// kIntAsPtr is the antisymmetry-forced pick: both are sound (neither value
// survives a dereference), and kWildPtr is the cheaper verdict (2 cases vs
// 2+variants).
//
// Integral class. Size roles fault on anything past the mapped buffer, so
// kIntMax (which includes SIZE_MAX) dominates every other magnitude;
// kIntMax → kIntMin is likewise an antisymmetry-forced pick between two
// sound directions (no catalog function is hostile to negatives but
// tolerant of 2^63). kHugeSize → kSmallRange and the kSmallRange → kOne →
// kZero chain order sizes downward; kByteRange (EOF, 'A', 255) dominates
// kSmallRange and kNegOne for char/size roles alike.
//
// Floating class is a simple chain: NaN poisons every consumer that any
// other special value upsets.
constexpr Edge kEdges[] = {
    // pointer
    {TestTypeId::kWildPtr, TestTypeId::kIntAsPtr},
    {TestTypeId::kWildPtr, TestTypeId::kNull},
    {TestTypeId::kWildPtr, TestTypeId::kFreedPtr},
    {TestTypeId::kWildPtr, TestTypeId::kMisaligned},
    {TestTypeId::kWildPtr, TestTypeId::kReadOnlyCString},
    {TestTypeId::kWildPtr, TestTypeId::kUntermBuf},
    {TestTypeId::kWildPtr, TestTypeId::kTinyWritable},
    {TestTypeId::kReadOnlyCString, TestTypeId::kFreedPtr},
    {TestTypeId::kUntermBuf, TestTypeId::kFreedPtr},
    {TestTypeId::kTinyWritable, TestTypeId::kFreedPtr},
    // The flawed-but-mapped types still dominate kMisaligned directly (they
    // fail for every heap-management role, so the realloc inversion that
    // forbids kFreedPtr → kMisaligned cannot bite), and a freed chunk being
    // accepted implies the pristine heap string is too.
    {TestTypeId::kReadOnlyCString, TestTypeId::kMisaligned},
    {TestTypeId::kUntermBuf, TestTypeId::kMisaligned},
    {TestTypeId::kTinyWritable, TestTypeId::kMisaligned},
    {TestTypeId::kFreedPtr, TestTypeId::kValidCString},
    {TestTypeId::kMisaligned, TestTypeId::kValidWritable},
    {TestTypeId::kValidWritable, TestTypeId::kValidCString},
    {TestTypeId::kNull, TestTypeId::kValidCString},
    // integral
    {TestTypeId::kIntMax, TestTypeId::kIntMin},
    {TestTypeId::kIntMax, TestTypeId::kHugeSize},
    {TestTypeId::kIntMax, TestTypeId::kByteRange},
    {TestTypeId::kIntMax, TestTypeId::kNegOne},
    {TestTypeId::kHugeSize, TestTypeId::kSmallRange},
    {TestTypeId::kByteRange, TestTypeId::kSmallRange},
    {TestTypeId::kByteRange, TestTypeId::kNegOne},
    {TestTypeId::kSmallRange, TestTypeId::kOne},
    {TestTypeId::kOne, TestTypeId::kZero},
    {TestTypeId::kIntMin, TestTypeId::kNegOne},
    // floating
    {TestTypeId::kFNan, TestTypeId::kFInf},
    {TestTypeId::kFInf, TestTypeId::kFHuge},
    {TestTypeId::kFHuge, TestTypeId::kFNegative},
    {TestTypeId::kFNegative, TestTypeId::kFOne},
    {TestTypeId::kFOne, TestTypeId::kFZero},
};

// Hostile → safe per class. Pointer hostility matches canonical order;
// integral/floating canonical orders run safest-first, so the ranks here
// are their reverses (plus judgment calls among incomparable ids).
constexpr TestTypeId kPointerHostility[] = {
    TestTypeId::kWildPtr,      TestTypeId::kIntAsPtr,     TestTypeId::kNull,
    TestTypeId::kReadOnlyCString, TestTypeId::kUntermBuf, TestTypeId::kTinyWritable,
    TestTypeId::kFreedPtr,     TestTypeId::kMisaligned,   TestTypeId::kValidWritable,
    TestTypeId::kValidCString};
constexpr TestTypeId kIntegralHostility[] = {
    TestTypeId::kIntMax, TestTypeId::kIntMin,     TestTypeId::kHugeSize,
    TestTypeId::kByteRange, TestTypeId::kNegOne,  TestTypeId::kSmallRange,
    TestTypeId::kOne,    TestTypeId::kZero};
constexpr TestTypeId kFloatingHostility[] = {
    TestTypeId::kFNan, TestTypeId::kFInf, TestTypeId::kFHuge,
    TestTypeId::kFNegative, TestTypeId::kFOne, TestTypeId::kFZero};

constexpr TypeClass kClasses[] = {TypeClass::kPointer, TypeClass::kIntegral,
                                  TypeClass::kFloating};

[[nodiscard]] TypeClass class_of(TestTypeId id) noexcept {
  if (idx(id) <= idx(TestTypeId::kValidCString)) return TypeClass::kPointer;
  if (idx(id) <= idx(TestTypeId::kByteRange)) return TypeClass::kIntegral;
  return TypeClass::kFloating;
}

}  // namespace

std::size_t case_count(TestTypeId id, int variants) noexcept {
  const auto v = static_cast<std::size_t>(variants < 0 ? 0 : variants);
  switch (id) {
    case TestTypeId::kIntAsPtr: return 2 + v;
    case TestTypeId::kNull: return 1;
    case TestTypeId::kWildPtr: return 2;
    case TestTypeId::kFreedPtr: return 1;
    case TestTypeId::kMisaligned: return 2;
    case TestTypeId::kReadOnlyCString: return 1;
    case TestTypeId::kUntermBuf: return 1;
    case TestTypeId::kTinyWritable: return 1;
    case TestTypeId::kValidWritable: return 1;
    case TestTypeId::kValidCString: return 1;
    case TestTypeId::kZero: return 1;
    case TestTypeId::kOne: return 1;
    case TestTypeId::kNegOne: return 1;
    case TestTypeId::kIntMin: return 2;
    case TestTypeId::kIntMax: return 3;
    case TestTypeId::kHugeSize: return 1 + v;
    case TestTypeId::kSmallRange: return 3;
    case TestTypeId::kByteRange: return 3;
    case TestTypeId::kFZero:
    case TestTypeId::kFOne:
    case TestTypeId::kFNegative:
    case TestTypeId::kFHuge:
    case TestTypeId::kFNan:
    case TestTypeId::kFInf: return 1;
  }
  return 0;
}

bool is_scalar_type(TestTypeId id) noexcept {
  return class_of(id) != TypeClass::kPointer;
}

std::vector<TestCase> scalar_cases(TestTypeId id, int variants, Rng& rng) {
  std::vector<TestCase> out;
  auto add = [&out, id](SimValue value, std::string note) {
    out.push_back(TestCase{id, value, std::move(note)});
  };
  switch (id) {
    case TestTypeId::kZero:
      add(SimValue::integer(0), "0");
      break;
    case TestTypeId::kOne:
      add(SimValue::integer(1), "1");
      break;
    case TestTypeId::kNegOne:
      add(SimValue::integer(-1), "-1");
      break;
    case TestTypeId::kIntMin:
      add(SimValue::integer(static_cast<std::int64_t>(0x8000000000000000ULL)), "INT64_MIN");
      add(SimValue::integer(-2147483648LL), "INT32_MIN");
      break;
    case TestTypeId::kIntMax:
      add(SimValue::integer(0x7fffffffffffffffLL), "INT64_MAX");
      add(SimValue::integer(2147483647LL), "INT32_MAX");
      add(SimValue::integer(-1), "SIZE_MAX (as unsigned)");
      break;
    case TestTypeId::kHugeSize:
      add(SimValue::integer(1LL << 40), "2^40");
      for (int i = 0; i < variants; ++i) {
        add(SimValue::integer(rng.between(1LL << 24, 1LL << 36)), "random huge size");
      }
      break;
    case TestTypeId::kSmallRange:
      add(SimValue::integer(2), "2");
      add(SimValue::integer(7), "7");
      add(SimValue::integer(16), "16");
      break;
    case TestTypeId::kByteRange:
      add(SimValue::integer(-1), "EOF");
      add(SimValue::integer('A'), "'A'");
      add(SimValue::integer(255), "255");
      break;
    case TestTypeId::kFZero:
      add(SimValue::fp(0.0), "0.0");
      break;
    case TestTypeId::kFOne:
      add(SimValue::fp(1.0), "1.0");
      break;
    case TestTypeId::kFNegative:
      add(SimValue::fp(-1.5), "-1.5");
      break;
    case TestTypeId::kFHuge:
      add(SimValue::fp(1e308), "1e308");
      break;
    case TestTypeId::kFNan:
      add(SimValue::fp(std::nan("")), "NaN");
      break;
    case TestTypeId::kFInf:
      add(SimValue::fp(std::numeric_limits<double>::infinity()), "+inf");
      break;
    default:
      break;  // pointer types fabricate testbed state; not scalar
  }
  return out;
}

ImplicationIndex::ImplicationIndex() {
  for (const Edge& e : kEdges) closure_[idx(e.hostile)][idx(e.safe)] = true;
  // Warshall closure over the 24-id universe.
  for (std::size_t k = 0; k < kTestTypeCount; ++k) {
    for (std::size_t i = 0; i < kTestTypeCount; ++i) {
      if (!closure_[i][k]) continue;
      for (std::size_t j = 0; j < kTestTypeCount; ++j) {
        if (closure_[k][j]) closure_[i][j] = true;
      }
    }
  }
  for (std::size_t i = 0; i < kTestTypeCount; ++i) {
    hostility_[i] = kTestTypeCount;
    canonical_[i] = kTestTypeCount;
  }
  auto rank = [this](const TestTypeId* ids, std::size_t n) {
    for (std::size_t r = 0; r < n; ++r) hostility_[idx(ids[r])] = r;
  };
  rank(kPointerHostility, std::size(kPointerHostility));
  rank(kIntegralHostility, std::size(kIntegralHostility));
  rank(kFloatingHostility, std::size(kFloatingHostility));
  for (TypeClass cls : kClasses) {
    const auto& canon = test_types_for(cls);
    for (std::size_t r = 0; r < canon.size(); ++r) canonical_[idx(canon[r])] = r;
    // implied_pass / implied_fail in canonical order, so every consumer of
    // the closure iterates deterministically.
    for (TestTypeId a : canon) {
      for (TestTypeId b : canon) {
        if (closure_[idx(a)][idx(b)]) pass_[idx(a)].push_back(b);
        if (closure_[idx(b)][idx(a)]) fail_[idx(a)].push_back(b);
      }
    }
  }
}

const ImplicationIndex& ImplicationIndex::instance() {
  static const ImplicationIndex index;
  return index;
}

bool ImplicationIndex::subsumes(TestTypeId hostile, TestTypeId safe) const noexcept {
  return closure_[idx(hostile)][idx(safe)];
}

const std::vector<TestTypeId>& ImplicationIndex::implied_pass(TestTypeId id) const noexcept {
  return pass_[idx(id)];
}

const std::vector<TestTypeId>& ImplicationIndex::implied_fail(TestTypeId id) const noexcept {
  return fail_[idx(id)];
}

std::size_t ImplicationIndex::reach(TestTypeId id) const noexcept {
  return pass_[idx(id)].size();
}

std::size_t ImplicationIndex::hostility_rank(TestTypeId id) const noexcept {
  return hostility_[idx(id)];
}

std::size_t ImplicationIndex::canonical_rank(TestTypeId id) const noexcept {
  return canonical_[idx(id)];
}

std::string ImplicationIndex::validate() {
  const ImplicationIndex& x = instance();
  std::ostringstream bad;
  // Totality of the ordering: every id has a hostility rank and a canonical
  // rank inside exactly one class, and ranks are a permutation.
  for (TypeClass cls : kClasses) {
    const auto& canon = test_types_for(cls);
    std::vector<bool> seen(canon.size(), false);
    for (TestTypeId id : canon) {
      if (class_of(id) != cls) {
        bad << to_string(id) << " listed under the wrong class";
        return bad.str();
      }
      const std::size_t h = x.hostility_rank(id);
      if (h >= canon.size() || seen[h]) {
        bad << to_string(id) << " has no unique hostility rank in its class";
        return bad.str();
      }
      seen[h] = true;
      if (x.canonical_rank(id) >= canon.size()) {
        bad << to_string(id) << " missing from canonical order";
        return bad.str();
      }
    }
  }
  for (std::size_t i = 0; i < kTestTypeCount; ++i) {
    const auto a = static_cast<TestTypeId>(i);
    if (x.hostility_rank(a) >= kTestTypeCount) {
      bad << to_string(a) << " is unordered (no hostility rank)";
      return bad.str();
    }
    for (std::size_t j = 0; j < kTestTypeCount; ++j) {
      const auto b = static_cast<TestTypeId>(j);
      // Antisymmetry (with irreflexivity): a cycle in the direct edges
      // would surface here as subsumes(a, a) after the Warshall pass.
      if (x.subsumes(a, b) && x.subsumes(b, a)) {
        bad << "antisymmetry violated: " << to_string(a) << " <-> " << to_string(b);
        return bad.str();
      }
      if (x.subsumes(a, b) && class_of(a) != class_of(b)) {
        bad << "cross-class edge: " << to_string(a) << " -> " << to_string(b);
        return bad.str();
      }
      // Transitivity: the stored relation must be its own closure.
      if (!x.subsumes(a, b)) continue;
      for (std::size_t k = 0; k < kTestTypeCount; ++k) {
        const auto c = static_cast<TestTypeId>(k);
        if (x.subsumes(b, c) && !x.subsumes(a, c)) {
          bad << "transitivity violated: " << to_string(a) << " -> " << to_string(b)
              << " -> " << to_string(c);
          return bad.str();
        }
      }
    }
  }
  return "";
}

std::string ImplicationProfileStore::signature(TypeClass cls,
                                               const parser::ArgAnnotation* note) {
  std::string out(parser::kTypeClassNames[static_cast<std::size_t>(cls)]);
  if (note == nullptr) return out;
  std::vector<std::string> flags;
  if (note->nonnull) flags.emplace_back("nonnull");
  if (note->allownull) flags.emplace_back("allownull");
  if (note->cstring) flags.emplace_back("cstring");
  if (note->cursor) flags.emplace_back("cursor");
  if (note->is_file) flags.emplace_back("file");
  if (note->is_heapptr) flags.emplace_back("heapptr");
  if (note->is_funcptr) flags.emplace_back("funcptr");
  if (note->saveptr_index.has_value()) flags.emplace_back("saveptr");
  if (note->range.has_value()) flags.emplace_back("range");
  if (note->write_size.has_value()) flags.emplace_back("wsize");
  if (note->read_size.has_value()) flags.emplace_back("rsize");
  if (flags.empty()) return out;
  std::sort(flags.begin(), flags.end());
  out += '|';
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if (i != 0) out += ',';
    out += flags[i];
  }
  return out;
}

std::optional<SignatureProfile> ImplicationProfileStore::lookup(
    const std::string& signature) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = profiles_.find(signature);
  if (it == profiles_.end()) return std::nullopt;
  return it->second;
}

void ImplicationProfileStore::learn(const std::string& signature, TestTypeId id,
                                    bool passed, std::uint32_t weight) {
  std::lock_guard<std::mutex> lock(mutex_);
  SignatureProfile& p = profiles_[signature];
  p.signature = signature;
  auto& slot = passed ? p.passes[idx(id)] : p.fails[idx(id)];
  slot += weight;
}

std::vector<SignatureProfile> ImplicationProfileStore::export_profiles() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SignatureProfile> out;
  out.reserve(profiles_.size());
  for (const auto& [sig, profile] : profiles_) out.push_back(profile);
  return out;  // map order == sorted by signature
}

void ImplicationProfileStore::import_profiles(const std::vector<SignatureProfile>& entries) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const SignatureProfile& e : entries) {
    SignatureProfile& p = profiles_[e.signature];
    p.signature = e.signature;
    for (std::size_t i = 0; i < kTestTypeCount; ++i) {
      p.passes[i] += e.passes[i];
      p.fails[i] += e.fails[i];
    }
  }
}

std::size_t ImplicationProfileStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return profiles_.size();
}

}  // namespace healers::lattice
