// Simulated call stack with in-memory return addresses.
//
// This models exactly what the stack-smashing half of demo §3.4 needs: each
// frame stores its return address in simulated memory *above* its local
// buffers, so a string overflow through a stack-allocated buffer runs into
// the saved return address (as on x86, where the stack grows down but writes
// grow up toward the saved EIP). On frame pop the machine compares the slot
// against the value recorded at push time; a mismatch in an unprotected
// process becomes a control-flow hijack.
//
// The security wrapper's libsafe-style defence uses frame_of()/frame bounds:
// a wrapped string write whose destination lies in frame F must not extend
// into F's return-address slot.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "memmodel/addr_space.hpp"

namespace healers::mem {

struct Frame {
  std::string function;     // name, for diagnostics
  Addr base = 0;            // lowest address of the frame
  std::uint64_t size = 0;   // total frame size incl. return-address slot
  Addr ret_slot = 0;        // address of the 8-byte saved return address
  std::uint64_t saved_ret = 0;  // value recorded at push time
  Addr locals_next = 0;     // bump pointer for local allocations
};

class Stack {
 public:
  // Carves a stack region out of `space`. Frames are pushed downward from
  // the top of the region.
  Stack(AddressSpace& space, std::uint64_t size, std::string label = "stack");

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  // Pushes a frame with room for `locals_size` bytes of locals plus the
  // return-address slot; stores `return_address` into the slot. Throws
  // AccessFault(kSegv) on stack exhaustion (stack overflow).
  Frame& push(std::string function, std::uint64_t locals_size, std::uint64_t return_address);

  // Allocates `size` bytes of locals in the current frame, lowest-first, so
  // that later writes past a buffer move *toward* the return-address slot.
  [[nodiscard]] Addr alloc_local(std::uint64_t size);

  // Pops the current frame and returns the return address as read back from
  // simulated memory (possibly corrupted). Caller compares with the recorded
  // value. Throws std::logic_error when no frame is live.
  struct PopResult {
    std::uint64_t stored_ret;  // value read from the slot at pop time
    std::uint64_t saved_ret;   // value recorded at push time
    [[nodiscard]] bool corrupted() const noexcept { return stored_ret != saved_ret; }
  };
  PopResult pop();

  [[nodiscard]] std::size_t depth() const noexcept { return frames_.size(); }
  [[nodiscard]] const std::vector<Frame>& frames() const noexcept { return frames_; }
  [[nodiscard]] const Frame* current() const noexcept {
    return frames_.empty() ? nullptr : &frames_.back();
  }

  // Innermost frame containing `addr`, or nullptr. Used by the security
  // wrapper to bound writes through stack pointers.
  [[nodiscard]] const Frame* frame_of(Addr addr) const noexcept;

  // Frame bookkeeping snapshot; stack bytes themselves live in the address
  // space (Machine::restore pairs the two).
  struct Snapshot {
    std::vector<Frame> frames;
    Addr sp = 0;
  };
  [[nodiscard]] Snapshot snapshot() const { return Snapshot{frames_, sp_}; }
  void restore(const Snapshot& snap) {
    frames_ = snap.frames;
    sp_ = snap.sp;
  }

  [[nodiscard]] std::uint64_t region_size() const noexcept { return region_size_; }

 private:
  AddressSpace& space_;
  Addr region_base_ = 0;
  std::uint64_t region_size_ = 0;
  Addr sp_ = 0;  // current stack pointer (next frame ends here)
  std::vector<Frame> frames_;
};

}  // namespace healers::mem
