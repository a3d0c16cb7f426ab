#include "support/faults.hpp"

#include <array>

namespace healers {

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSegv:
      return "SIGSEGV";
    case FaultKind::kBus:
      return "SIGBUS";
    case FaultKind::kAbort:
      return "SIGABRT";
    case FaultKind::kHang:
      return "HANG";
    case FaultKind::kHijack:
      return "HIJACK";
  }
  return "UNKNOWN";
}

std::string to_hex(std::uint64_t value) {
  static constexpr std::array<char, 16> kDigits = {'0', '1', '2', '3', '4', '5', '6', '7',
                                                   '8', '9', 'a', 'b', 'c', 'd', 'e', 'f'};
  if (value == 0) return "0";
  std::string out;
  while (value != 0) {
    out.insert(out.begin(), kDigits[value & 0xF]);
    value >>= 4;
  }
  return out;
}

std::string FaultRecord::to_string() const {
  return healers::to_string(kind) + " at 0x" + to_hex(address) + ": " + detail;
}

const char* SimFault::what() const noexcept {
  if (what_.empty()) {
    try {
      what_ = describe();
    } catch (...) {
      return "simulated fault";
    }
  }
  return what_.c_str();
}

}  // namespace healers
