#include "typelattice/testtype.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "typelattice/subsume.hpp"

namespace healers::lattice {

using parser::TypeClass;
using simlib::SimValue;

const std::vector<TestTypeId>& test_types_for(TypeClass cls) {
  static const std::vector<TestTypeId> kPointer = {
      TestTypeId::kIntAsPtr,  TestTypeId::kNull,         TestTypeId::kWildPtr,
      TestTypeId::kFreedPtr,  TestTypeId::kMisaligned,   TestTypeId::kReadOnlyCString,
      TestTypeId::kUntermBuf, TestTypeId::kTinyWritable, TestTypeId::kValidWritable,
      TestTypeId::kValidCString};
  static const std::vector<TestTypeId> kIntegral = {
      TestTypeId::kZero,   TestTypeId::kOne,      TestTypeId::kNegOne,
      TestTypeId::kIntMin, TestTypeId::kIntMax,   TestTypeId::kHugeSize,
      TestTypeId::kSmallRange, TestTypeId::kByteRange};
  static const std::vector<TestTypeId> kFloating = {
      TestTypeId::kFZero, TestTypeId::kFOne, TestTypeId::kFNegative,
      TestTypeId::kFHuge, TestTypeId::kFNan, TestTypeId::kFInf};
  static const std::vector<TestTypeId> kNone = {};
  switch (cls) {
    case TypeClass::kPointer: return kPointer;
    case TypeClass::kIntegral: return kIntegral;
    case TypeClass::kFloating: return kFloating;
    case TypeClass::kVoid: return kNone;
  }
  return kNone;
}

mem::Addr ValueFactory::writable_buffer(std::uint64_t size, const std::string& fill) {
  const mem::Addr addr = process_.scratch(size, mem::Perm::kReadWrite, "probe_buf");
  const std::string text = fill.substr(0, size == 0 ? 0 : size - 1);
  process_.machine().mem().write_cstring(addr, text);
  return addr;
}

mem::Addr ValueFactory::valid_file() {
  // A FILE* can only be fabricated through the library itself.
  const mem::Addr path = process_.rodata_cstring("/probe/file.txt");
  const mem::Addr mode = process_.rodata_cstring("w+");
  const simlib::SimValue file = process_.call("fopen", {SimValue::ptr(path), SimValue::ptr(mode)});
  if (file.as_ptr() == 0) {
    throw std::runtime_error("ValueFactory::valid_file: fopen failed in testbed");
  }
  return file.as_ptr();
}

std::vector<TestCase> ValueFactory::cases_of(TestTypeId id, int variants) {
  // Integral/floating cases are pure data — they fabricate no testbed state
  // — and the subsumption pruner replays them to synthesize implied
  // verdicts, so they live in one place (subsume.cpp).
  if (is_scalar_type(id)) return scalar_cases(id, variants, rng_);
  std::vector<TestCase> out;
  auto add = [&out, id](SimValue value, std::string note) {
    out.push_back(TestCase{id, value, std::move(note)});
  };
  switch (id) {
    case TestTypeId::kIntAsPtr: {
      add(SimValue::ptr(1), "ptr 0x1");
      add(SimValue::ptr(0xfff), "ptr 0xfff (below first mapping)");
      for (int i = 0; i < variants; ++i) {
        const auto raw = rng_.next();
        add(SimValue::ptr(raw), "random int as ptr");
      }
      break;
    }
    case TestTypeId::kNull:
      add(SimValue::null(), "NULL");
      break;
    case TestTypeId::kWildPtr:
      add(SimValue::ptr(mem::AddressSpace::wild_pointer()), "unmapped high address");
      add(SimValue::ptr(0x7fff00000000ULL), "unmapped canonical-ish address");
      break;
    case TestTypeId::kFreedPtr: {
      const mem::Addr p = process_.machine().heap().malloc(32);
      if (p != 0) {
        process_.machine().mem().write_cstring(p, "stale");
        process_.machine().heap().free(p);
        add(SimValue::ptr(p), "freed heap pointer");
      }
      break;
    }
    case TestTypeId::kMisaligned: {
      const mem::Addr buf = writable_buffer(64, "misaligned-content");
      add(SimValue::ptr(buf + 1), "buffer base + 1");
      add(SimValue::ptr(buf + 3), "buffer base + 3");
      break;
    }
    case TestTypeId::kReadOnlyCString:
      add(SimValue::ptr(process_.rodata_cstring("read-only literal")), "rodata string");
      break;
    case TestTypeId::kUntermBuf: {
      // A writable region with NO terminating NUL anywhere inside.
      const mem::Addr addr = process_.scratch(64, mem::Perm::kReadWrite, "unterm_buf");
      for (std::uint64_t i = 0; i < 64; ++i) {
        process_.machine().mem().store8(addr + i, 'A');
      }
      add(SimValue::ptr(addr), "64B buffer without NUL");
      break;
    }
    case TestTypeId::kTinyWritable:
      add(SimValue::ptr(writable_buffer(4, "abc")), "4-byte writable buffer");
      break;
    case TestTypeId::kValidWritable:
      add(SimValue::ptr(writable_buffer(256, "hello")), "256B writable buffer");
      break;
    case TestTypeId::kValidCString: {
      const mem::Addr p = process_.alloc_cstring("a pristine heap string");
      add(SimValue::ptr(p), "heap C string");
      break;
    }
    default:
      break;  // scalar types handled above
  }
  return out;
}

simlib::SimValue ValueFactory::safe_value(const parser::ManPage& page, int arg_index_1based) {
  const auto& param = page.proto.params.at(static_cast<std::size_t>(arg_index_1based) - 1);
  const parser::ArgAnnotation* note = page.arg(arg_index_1based);
  switch (param.type.classify()) {
    case TypeClass::kPointer: {
      if (note != nullptr && note->is_file) return SimValue::ptr(valid_file());
      if (note != nullptr && note->is_heapptr) {
        const mem::Addr p = process_.machine().heap().malloc(64);
        if (p == 0) throw std::runtime_error("safe_value: testbed heap exhausted");
        process_.machine().mem().write_cstring(p, "heap");
        return SimValue::ptr(p);
      }
      if (note != nullptr && note->is_funcptr) {
        // A valid callback: byte-wise comparator, the shape qsort expects.
        // Like library code, it returns with a fault latched (the caller
        // tests Machine::faulted()).
        return SimValue::ptr(process_.register_callback(
            "probe_compar", [](simlib::CallContext& cb) {
              mem::AddressSpace& as = cb.machine.mem();
              std::uint8_t a = 0;
              std::uint8_t b = 0;
              if (!as.try_load8(cb.arg_ptr(0), a) || !as.try_load8(cb.arg_ptr(1), b)) {
                return SimValue::integer(0);
              }
              return SimValue::integer(a < b ? -1 : (a > b ? 1 : 0));
            }));
      }
      // Generous writable, terminated buffer works for read and write roles.
      return SimValue::ptr(writable_buffer(512, "sample"));
    }
    case TypeClass::kIntegral: {
      if (note != nullptr && note->range.has_value()) {
        // Midpoint of the documented domain.
        return SimValue::integer(note->range->first +
                                 (note->range->second - note->range->first) / 2);
      }
      // Small positive: safe as a size for the 512-byte buffers above, safe
      // as a character, safe as a base=10-ish parameter... except base
      // constraints; strto* accept 10.
      return SimValue::integer(param.name == "base" ? 10 : 4);
    }
    case TypeClass::kFloating:
      return SimValue::fp(1.5);
    case TypeClass::kVoid:
      return SimValue::integer(0);
  }
  return SimValue::integer(0);
}

}  // namespace healers::lattice
