#include "simlib/cerrno.hpp"

namespace healers::simlib {

std::string errno_name(int err) {
  switch (err) {
    case kEOK: return "OK";
    case kEPERM: return "EPERM";
    case kENOENT: return "ENOENT";
    case kEINTR: return "EINTR";
    case kEIO: return "EIO";
    case kEBADF: return "EBADF";
    case kENOMEM: return "ENOMEM";
    case kEACCES: return "EACCES";
    case kEFAULT: return "EFAULT";
    case kEEXIST: return "EEXIST";
    case kEINVAL: return "EINVAL";
    case kEMFILE: return "EMFILE";
    case kENOSPC: return "ENOSPC";
    case kEDOM: return "EDOM";
    case kERANGE: return "ERANGE";
    case kEOVERFLOW: return "EOVERFLOW";
    default:
      if (err > 0 && err < kMaxErrno) return std::string("E").append(std::to_string(err));
      return "E?";
  }
}

std::string errno_describe(int err) {
  switch (err) {
    case kEOK: return "Success";
    case kEPERM: return "Operation not permitted";
    case kENOENT: return "No such file or directory";
    case kEINTR: return "Interrupted system call";
    case kEIO: return "Input/output error";
    case kEBADF: return "Bad file descriptor";
    case kENOMEM: return "Cannot allocate memory";
    case kEACCES: return "Permission denied";
    case kEFAULT: return "Bad address";
    case kEEXIST: return "File exists";
    case kEINVAL: return "Invalid argument";
    case kEMFILE: return "Too many open files";
    case kENOSPC: return "No space left on device";
    case kEDOM: return "Numerical argument out of domain";
    case kERANGE: return "Numerical result out of range";
    case kEOVERFLOW: return "Value too large for defined data type";
    default: return "Unknown error " + std::to_string(err);
  }
}

}  // namespace healers::simlib
