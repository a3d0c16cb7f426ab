// errno constants of the simulated C runtime.
//
// Deliberately mirrors the classic Unix numbering so profiling reports
// (Fig 5: "causes of errors, classified by errnos") read naturally. The
// profiling wrapper's errno histograms are indexed by these values and
// rendered through errno_name()/errno_describe().
#pragma once

#include <string>

namespace healers::simlib {

inline constexpr int kEOK = 0;
inline constexpr int kEPERM = 1;
inline constexpr int kENOENT = 2;
inline constexpr int kEINTR = 4;
inline constexpr int kEIO = 5;
inline constexpr int kEBADF = 9;
inline constexpr int kENOMEM = 12;
inline constexpr int kEACCES = 13;
inline constexpr int kEFAULT = 14;
inline constexpr int kEEXIST = 17;
inline constexpr int kEINVAL = 22;
inline constexpr int kEMFILE = 24;
inline constexpr int kENOSPC = 28;
inline constexpr int kEDOM = 33;
inline constexpr int kERANGE = 34;
inline constexpr int kEOVERFLOW = 75;

// Upper bound for errno histograms (paper Fig 3: MAX_ERRNO).
inline constexpr int kMaxErrno = 64;

// "EINVAL" etc.; "E<n>" for unnamed values in range, "E?" outside.
[[nodiscard]] std::string errno_name(int err);
// Short human text: "Invalid argument".
[[nodiscard]] std::string errno_describe(int err);

}  // namespace healers::simlib
