#include "simlib/value.hpp"

#include "support/faults.hpp"

namespace healers::simlib {

std::string SimValue::to_string() const {
  switch (kind_) {
    case Kind::kInt:
      return std::to_string(int_);
    case Kind::kFloat:
      return std::to_string(float_);
    case Kind::kPtr:
      return ptr_ == 0 ? "NULL" : hex_addr(ptr_);
  }
  return "?";
}

}  // namespace healers::simlib
