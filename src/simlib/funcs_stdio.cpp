// Stdio subset over the in-memory filesystem.
//
// FILE objects live in *simulated* heap memory (16 bytes: magic, slot
// index); the open-file table itself is host-side LibState. A garbage FILE*
// faults when the library loads the magic through it; a stale FILE* (used
// after fclose) likewise "crashes" — both are behaviours the robustness
// wrapper must contain by tracking streams it saw fopen return.
#include <algorithm>
#include <cstring>

#include "simlib/bulk.hpp"
#include "simlib/cerrno.hpp"
#include "simlib/funcs.hpp"
#include "simlib/libstate.hpp"

namespace healers::simlib {

namespace {

using detail::fault_return;
using detail::make_symbol;
using mem::Addr;
using mem::AddressSpace;

// The open stream behind a FILE*, or nullptr with the crash latched.
OpenFile* file_of(CallContext& ctx, Addr file_ptr) {
  AddressSpace& as = ctx.machine.mem();
  ctx.machine.tick(2);
  std::uint64_t magic = 0;
  if (!as.try_load64(file_ptr, magic)) return nullptr;  // garbage pointers fault
  if (magic != kFileMagic) {
    // The simulated library chases internal pointers of what it believes is
    // a FILE; wrong magic means those "pointers" are garbage.
    as.latch_fault(FaultKind::kSegv, file_ptr, "not a FILE object");
    return nullptr;
  }
  std::uint64_t index = 0;
  if (!as.try_load64(file_ptr + 8, index)) return nullptr;
  if (index >= ctx.state.open_files.size() || !ctx.state.open_files[index].live) {
    as.latch_fault(FaultKind::kSegv, file_ptr, "stale FILE object (closed stream)");
    return nullptr;
  }
  return &ctx.state.open_files[index];
}

SimValue fn_fopen(CallContext& ctx) {
  AddressSpace& as = ctx.machine.mem();
  std::string path;
  std::string mode;
  if (!as.try_read_cstring(ctx.arg_ptr(0), path) || !as.try_read_cstring(ctx.arg_ptr(1), mode)) {
    return fault_return();
  }
  ctx.machine.tick(path.size() + mode.size() + 4);

  bool readable = false;
  bool writable = false;
  bool append = false;
  bool truncate = false;
  if (mode.empty()) {
    ctx.machine.set_err(kEINVAL);
    return SimValue::null();
  }
  switch (mode[0]) {
    case 'r': readable = true; break;
    case 'w': writable = true; truncate = true; break;
    case 'a': writable = true; append = true; break;
    default:
      ctx.machine.set_err(kEINVAL);
      return SimValue::null();
  }
  if (mode.find('+') != std::string::npos) {
    readable = true;
    writable = true;
  }

  if (!ctx.state.fs.exists(path)) {
    if (!writable) {
      ctx.machine.set_err(kENOENT);
      return SimValue::null();
    }
    ctx.state.fs.put(path, "");
  } else if (truncate) {
    ctx.state.fs.put(path, "");
  }

  const auto slot = ctx.state.allocate_slot();
  if (!slot.has_value()) {
    ctx.machine.set_err(kEMFILE);
    return SimValue::null();
  }
  const Addr obj = ctx.machine.heap().malloc(kFileObjSize);
  if (obj == 0) {
    ctx.machine.set_err(kENOMEM);
    return SimValue::null();
  }
  as.store64(obj, kFileMagic);
  as.store64(obj + 8, *slot);

  OpenFile& file = ctx.state.open_files[*slot];
  file = OpenFile{};
  file.path = path;
  file.readable = readable;
  file.writable = writable;
  file.append = append;
  file.pos = append ? ctx.state.fs.contents(path)->size() : 0;
  file.live = true;
  file.file_obj = obj;
  return SimValue::ptr(obj);
}

SimValue fn_fclose(CallContext& ctx) {
  const Addr file_ptr = ctx.arg_ptr(0);
  OpenFile* file = file_of(ctx, file_ptr);
  if (file == nullptr) return fault_return();
  file->live = false;
  ctx.machine.heap().free(file->file_obj);
  return SimValue::integer(0);
}

SimValue fn_fread(CallContext& ctx) {
  const Addr buf = ctx.arg_ptr(0);
  const std::uint64_t size = ctx.arg_size(1);
  const std::uint64_t nmemb = ctx.arg_size(2);
  OpenFile* file = file_of(ctx, ctx.arg_ptr(3));
  if (file == nullptr) return fault_return();
  if (!file->readable) {
    ctx.machine.set_err(kEBADF);
    return SimValue::integer(0);
  }
  const std::string* data = ctx.state.fs.contents(file->path);
  if (data == nullptr) {
    ctx.machine.set_err(kEIO);
    return SimValue::integer(0);
  }
  std::uint64_t done = 0;
  for (; done < nmemb; ++done) {
    if (file->pos + size > data->size()) break;
    // file->pos only advances once the whole member landed, so a mid-member
    // fault leaves the stream position untouched, as in the byte loop.
    bulk::store_host(ctx.machine, buf + done * size, data->data() + file->pos, size);
    if (ctx.machine.faulted()) return fault_return();
    file->pos += size;
  }
  if (done < nmemb) file->eof = true;
  return SimValue::integer(static_cast<std::int64_t>(done));
}

SimValue fn_fwrite(CallContext& ctx) {
  AddressSpace& as = ctx.machine.mem();
  const Addr buf = ctx.arg_ptr(0);
  const std::uint64_t size = ctx.arg_size(1);
  const std::uint64_t nmemb = ctx.arg_size(2);
  OpenFile* file = file_of(ctx, ctx.arg_ptr(3));
  if (file == nullptr) return fault_return();
  if (!file->writable) {
    ctx.machine.set_err(kEBADF);
    return SimValue::integer(0);
  }
  std::string* data = ctx.state.fs.contents_mut(file->path);
  if (data == nullptr) {
    ctx.machine.set_err(kEIO);
    return SimValue::integer(0);
  }
  // Chunk within each member rather than over a size*nmemb product: the
  // product wraps for fuzzed huge size/nmemb pairs, which must keep walking
  // (and faulting) like the reference nested loops. file->pos advances per
  // committed byte, and the load faults before the stream is touched.
  for (std::uint64_t m = 0; m < nmemb; ++m) {
    const Addr base = buf + m * size;
    std::uint64_t i = 0;
    while (i < size) {
      const std::uint64_t c =
          std::min(as.span_extent(base + i, mem::Perm::kRead), size - i);
      if (c == 0) {
        bulk::replay_load(ctx.machine, base + i);  // the read fault
        return fault_return();
      }
      const std::uint64_t w = ctx.machine.budget_units(c);
      if (w != 0) {
        const std::byte* p = as.span(base + i, w, mem::Perm::kRead);
        if (file->pos + w > data->size()) data->resize(file->pos + w);
        std::memcpy(&(*data)[file->pos], p, w);
        file->pos += w;
      }
      bulk::settle(ctx.machine, w, c);
      i += c;
    }
  }
  return SimValue::integer(static_cast<std::int64_t>(nmemb));
}

SimValue fn_fgets(CallContext& ctx) {
  AddressSpace& as = ctx.machine.mem();
  const Addr buf = ctx.arg_ptr(0);
  const std::int64_t n = ctx.arg_int(1);
  OpenFile* file = file_of(ctx, ctx.arg_ptr(2));
  if (file == nullptr) return fault_return();
  if (!file->readable) {
    ctx.machine.set_err(kEBADF);
    return SimValue::null();
  }
  const std::string* data = ctx.state.fs.contents(file->path);
  if (data == nullptr || n <= 0 || file->pos >= data->size()) {
    file->eof = true;
    return SimValue::null();
  }
  // Stop at newline (stored), buffer capacity, or end of data — whichever
  // first. file->pos advances per consumed byte before the store, so a
  // faulting store still leaves the byte consumed, as in the byte loop.
  const std::uint64_t limit =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(n - 1), data->size() - file->pos);
  const char* src = data->data() + file->pos;
  const void* nl = std::memchr(src, '\n', limit);
  const std::uint64_t want =
      nl != nullptr ? static_cast<std::uint64_t>(static_cast<const char*>(nl) - src) + 1 : limit;
  bulk::store_host(ctx.machine, buf, src, want, &file->pos);
  // Unticked, as in the reference epilogue.
  if (ctx.machine.faulted() || !as.try_store8(buf + want, 0)) return fault_return();
  return SimValue::ptr(buf);
}

SimValue fn_fputs(CallContext& ctx) {
  AddressSpace& as = ctx.machine.mem();
  const Addr s = ctx.arg_ptr(0);
  OpenFile* file = file_of(ctx, ctx.arg_ptr(1));
  if (file == nullptr) return fault_return();
  if (!file->writable) {
    ctx.machine.set_err(kEBADF);
    return SimValue::integer(-1);
  }
  std::string* data = ctx.state.fs.contents_mut(file->path);
  if (data == nullptr) {
    ctx.machine.set_err(kEIO);
    return SimValue::integer(-1);
  }
  // Chunked scan-and-append: the terminator iteration ticks but writes
  // nothing, so only min(w, k) data bytes land before a hang.
  std::uint64_t i = 0;
  while (true) {
    const std::uint64_t extent = as.span_extent(s + i, mem::Perm::kRead);
    if (extent == 0) {
      bulk::replay_load(ctx.machine, s + i);
      return fault_return();
    }
    const std::byte* p = as.span(s + i, extent, mem::Perm::kRead);
    const void* hit = std::memchr(p, 0, extent);
    const auto k = hit != nullptr
                       ? static_cast<std::uint64_t>(static_cast<const std::byte*>(hit) - p)
                       : extent;
    const std::uint64_t want = hit != nullptr ? k + 1 : extent;
    const std::uint64_t w = ctx.machine.budget_units(want);
    const std::uint64_t bytes = std::min(w, k);
    if (bytes != 0) {
      if (file->pos + bytes > data->size()) data->resize(file->pos + bytes);
      std::memcpy(&(*data)[file->pos], p, bytes);
      file->pos += bytes;
    }
    bulk::settle(ctx.machine, w, want);
    if (hit != nullptr) break;
    i += extent;
  }
  return SimValue::integer(1);
}

SimValue fn_fgetc(CallContext& ctx) {
  OpenFile* file = file_of(ctx, ctx.arg_ptr(0));
  if (file == nullptr) return fault_return();
  if (!file->readable) {
    ctx.machine.set_err(kEBADF);
    return SimValue::integer(-1);
  }
  const std::string* data = ctx.state.fs.contents(file->path);
  ctx.machine.tick();
  if (data == nullptr || file->pos >= data->size()) {
    file->eof = true;
    return SimValue::integer(-1);  // EOF
  }
  return SimValue::integer(static_cast<std::uint8_t>((*data)[file->pos++]));
}

SimValue fn_fputc(CallContext& ctx) {
  const auto byte = static_cast<char>(ctx.arg_int(0));
  OpenFile* file = file_of(ctx, ctx.arg_ptr(1));
  if (file == nullptr) return fault_return();
  if (!file->writable) {
    ctx.machine.set_err(kEBADF);
    return SimValue::integer(-1);
  }
  std::string* data = ctx.state.fs.contents_mut(file->path);
  if (data == nullptr) {
    ctx.machine.set_err(kEIO);
    return SimValue::integer(-1);
  }
  ctx.machine.tick();
  if (file->pos >= data->size()) data->resize(file->pos + 1);
  (*data)[file->pos++] = byte;
  return SimValue::integer(static_cast<std::uint8_t>(byte));
}

SimValue fn_feof(CallContext& ctx) {
  OpenFile* file = file_of(ctx, ctx.arg_ptr(0));
  if (file == nullptr) return fault_return();
  return SimValue::integer(file->eof ? 1 : 0);
}

SimValue fn_fflush(CallContext& ctx) {
  if (ctx.arg_ptr(0) != 0 && file_of(ctx, ctx.arg_ptr(0)) == nullptr) return fault_return();
  ctx.machine.tick();
  return SimValue::integer(0);
}

SimValue fn_ftell(CallContext& ctx) {
  OpenFile* file = file_of(ctx, ctx.arg_ptr(0));
  if (file == nullptr) return fault_return();
  return SimValue::integer(static_cast<std::int64_t>(file->pos));
}

SimValue fn_rewind(CallContext& ctx) {
  OpenFile* file = file_of(ctx, ctx.arg_ptr(0));
  if (file == nullptr) return fault_return();
  file->pos = 0;
  file->eof = false;
  return SimValue::integer(0);
}

SimValue fn_remove(CallContext& ctx) {
  std::string path;
  if (!ctx.machine.mem().try_read_cstring(ctx.arg_ptr(0), path)) return fault_return();
  ctx.machine.tick(path.size() + 1);
  if (!ctx.state.fs.exists(path)) {
    ctx.machine.set_err(kENOENT);
    return SimValue::integer(-1);
  }
  ctx.state.fs.remove(path);
  return SimValue::integer(0);
}

SimValue fn_fprintf(CallContext& ctx) {
  OpenFile* file = file_of(ctx, ctx.arg_ptr(0));
  if (file == nullptr) return fault_return();
  if (!file->writable) {
    ctx.machine.set_err(kEBADF);
    return SimValue::integer(-1);
  }
  std::string out;
  const bool fits = detail::format_into(ctx, ctx.arg_ptr(1), 2, out);
  if (ctx.machine.faulted()) return fault_return();
  if (!fits) return SimValue::integer(-1);
  std::string* data = ctx.state.fs.contents_mut(file->path);
  if (data == nullptr) {
    ctx.machine.set_err(kEIO);
    return SimValue::integer(-1);
  }
  for (const char byte : out) {
    if (file->pos >= data->size()) data->resize(file->pos + 1);
    (*data)[file->pos++] = byte;
  }
  return SimValue::integer(static_cast<std::int64_t>(out.size()));
}

SimValue fn_sprintf(CallContext& ctx) {
  AddressSpace& as = ctx.machine.mem();
  const Addr dest = ctx.arg_ptr(0);
  std::string out;
  const bool fits = detail::format_into(ctx, ctx.arg_ptr(1), 2, out);
  if (ctx.machine.faulted()) return fault_return();
  if (!fits) return SimValue::integer(-1);
  // Unbounded write: the classic overflow vector.
  bulk::store_host(ctx.machine, dest, out.data(), out.size());
  // Unticked, as in the reference epilogue.
  if (ctx.machine.faulted() || !as.try_store8(dest + out.size(), 0)) return fault_return();
  return SimValue::integer(static_cast<std::int64_t>(out.size()));
}

SimValue fn_snprintf(CallContext& ctx) {
  AddressSpace& as = ctx.machine.mem();
  const Addr dest = ctx.arg_ptr(0);
  const std::uint64_t cap = ctx.arg_size(1);
  std::string out;
  const bool fits = detail::format_into(ctx, ctx.arg_ptr(2), 3, out);
  if (ctx.machine.faulted()) return fault_return();
  if (!fits) return SimValue::integer(-1);
  if (cap > 0) {
    const std::uint64_t n = std::min<std::uint64_t>(out.size(), cap - 1);
    bulk::store_host(ctx.machine, dest, out.data(), n);
    // Unticked, as in the reference epilogue.
    if (ctx.machine.faulted() || !as.try_store8(dest + n, 0)) return fault_return();
  }
  return SimValue::integer(static_cast<std::int64_t>(out.size()));
}

// THE classic: gets() writes the pending stdin line into the caller's
// buffer with no bound whatsoever.
SimValue fn_gets(CallContext& ctx) {
  AddressSpace& as = ctx.machine.mem();
  const Addr dest = ctx.arg_ptr(0);
  simlib::LibState& st = ctx.state;
  if (st.stdin_pos >= st.stdin_content.size()) return SimValue::null();  // EOF
  // The newline is consumed (one tick, stdin_pos advances) but never stored.
  const std::uint64_t avail = st.stdin_content.size() - st.stdin_pos;
  const char* src = st.stdin_content.data() + st.stdin_pos;
  const void* nl = std::memchr(src, '\n', avail);
  const std::uint64_t stored =
      nl != nullptr ? static_cast<std::uint64_t>(static_cast<const char*>(nl) - src) : avail;
  bulk::store_host(ctx.machine, dest, src, stored, &st.stdin_pos);
  if (ctx.machine.faulted()) return fault_return();
  if (nl != nullptr) {
    ctx.machine.tick();  // the newline iteration: may hang before consuming
    ++st.stdin_pos;
  }
  // Unticked, as in the reference epilogue.
  if (!as.try_store8(dest + stored, 0)) return fault_return();
  return SimValue::ptr(dest);
}

SimValue fn_getchar(CallContext& ctx) {
  simlib::LibState& st = ctx.state;
  ctx.machine.tick();
  if (st.stdin_pos >= st.stdin_content.size()) return SimValue::integer(-1);
  return SimValue::integer(static_cast<std::uint8_t>(st.stdin_content[st.stdin_pos++]));
}

SimValue fn_puts(CallContext& ctx) {
  AddressSpace& as = ctx.machine.mem();
  const Addr s = ctx.arg_ptr(0);
  std::uint64_t i = 0;
  while (true) {
    const std::uint64_t extent = as.span_extent(s + i, mem::Perm::kRead);
    if (extent == 0) {
      bulk::replay_load(ctx.machine, s + i);
      return fault_return();
    }
    const std::byte* p = as.span(s + i, extent, mem::Perm::kRead);
    const void* hit = std::memchr(p, 0, extent);
    const auto k = hit != nullptr
                       ? static_cast<std::uint64_t>(static_cast<const std::byte*>(hit) - p)
                       : extent;
    const std::uint64_t want = hit != nullptr ? k + 1 : extent;
    const std::uint64_t w = ctx.machine.budget_units(want);
    ctx.state.stdout_capture.append(reinterpret_cast<const char*>(p), std::min(w, k));
    bulk::settle(ctx.machine, w, want);
    if (hit != nullptr) break;
    i += extent;
  }
  ctx.state.stdout_capture += '\n';
  return SimValue::integer(1);
}

SimValue fn_printf(CallContext& ctx) {
  std::string out;
  const bool fits = detail::format_into(ctx, ctx.arg_ptr(0), 1, out);
  if (ctx.machine.faulted()) return fault_return();
  if (!fits) return SimValue::integer(-1);
  ctx.state.stdout_capture += out;
  return SimValue::integer(static_cast<std::int64_t>(out.size()));
}

}  // namespace

void register_stdio_funcs(SharedLibrary& lib) {
  lib.add(make_symbol("fopen", "open a stream",
                      "FILE *fopen(const char *pathname, const char *mode);",
                      {"NONNULL 1 2", "ARG 1 CSTRING", "ARG 2 CSTRING",
                       "ERRNO EINVAL ENOENT EMFILE ENOMEM"},
                      fn_fopen));
  lib.add(make_symbol("fclose", "close a stream", "int fclose(FILE *stream);",
                      {"NONNULL 1", "ARG 1 FILE"}, fn_fclose));
  lib.add(make_symbol("fread", "read from a stream",
                      "size_t fread(void *ptr, size_t size, size_t nmemb, FILE *stream);",
                      {"NONNULL 1 4", "ARG 4 FILE",
                       "ARG 1 BUF WRITE SIZE mul(arg(2),arg(3))", "ERRNO EBADF EIO"},
                      fn_fread));
  lib.add(make_symbol("fwrite", "write to a stream",
                      "size_t fwrite(const void *ptr, size_t size, size_t nmemb, FILE *stream);",
                      {"NONNULL 1 4", "ARG 4 FILE",
                       "ARG 1 BUF READ SIZE mul(arg(2),arg(3))", "ERRNO EBADF EIO"},
                      fn_fwrite));
  lib.add(make_symbol("fgets", "read a line from a stream",
                      "char *fgets(char *s, int size, FILE *stream);",
                      {"NONNULL 1 3", "ARG 3 FILE", "ARG 1 BUF WRITE SIZE arg(2)",
                       "ERRNO EBADF"},
                      fn_fgets));
  lib.add(make_symbol("fputs", "write a string to a stream",
                      "int fputs(const char *s, FILE *stream);",
                      {"NONNULL 1 2", "ARG 1 CSTRING", "ARG 2 FILE", "ERRNO EBADF",
                       "CALLS strlen"},
                      fn_fputs));
  lib.add(make_symbol("fgetc", "read a character from a stream",
                      "int fgetc(FILE *stream);", {"NONNULL 1", "ARG 1 FILE", "ERRNO EBADF"},
                      fn_fgetc));
  lib.add(make_symbol("fputc", "write a character to a stream",
                      "int fputc(int c, FILE *stream);",
                      {"NONNULL 2", "ARG 2 FILE", "ERRNO EBADF"}, fn_fputc));
  lib.add(make_symbol("feof", "test a stream's end-of-file flag",
                      "int feof(FILE *stream);", {"NONNULL 1", "ARG 1 FILE"}, fn_feof));
  lib.add(make_symbol("fflush", "flush a stream",
                      "int fflush(FILE *stream);", {"ALLOWNULL 1", "ARG 1 FILE"}, fn_fflush));
  lib.add(make_symbol("ftell", "report a stream position",
                      "long ftell(FILE *stream);", {"NONNULL 1", "ARG 1 FILE"}, fn_ftell));
  lib.add(make_symbol("rewind", "reset a stream position",
                      "void rewind(FILE *stream);", {"NONNULL 1", "ARG 1 FILE"}, fn_rewind));
  lib.add(make_symbol("remove", "delete a file",
                      "int remove(const char *pathname);",
                      {"NONNULL 1", "ARG 1 CSTRING", "ERRNO ENOENT"}, fn_remove));
  lib.add(make_symbol("fprintf", "formatted write to a stream",
                      "int fprintf(FILE *stream, const char *format, ...);",
                      {"NONNULL 1 2", "ARG 1 FILE", "ARG 2 CSTRING", "VARARGS",
                       "ERRNO EBADF"},
                      fn_fprintf));
  lib.add(make_symbol("sprintf", "formatted write to a buffer (unbounded)",
                      "int sprintf(char *str, const char *format, ...);",
                      {"NONNULL 1 2", "ARG 2 CSTRING", "VARARGS",
                       "ARG 1 BUF WRITE SIZE formatted(2)+1"},
                      fn_sprintf));
  lib.add(make_symbol("snprintf", "formatted write to a bounded buffer",
                      "int snprintf(char *str, size_t size, const char *format, ...);",
                      {"NONNULL 1 3", "ARG 3 CSTRING", "VARARGS",
                       "ARG 1 BUF WRITE SIZE arg(2)"},
                      fn_snprintf));
  lib.add(make_symbol("gets", "read a line from stdin (unbounded write)",
                      "char *gets(char *s);",
                      {"NONNULL 1", "ARG 1 BUF WRITE SIZE stdinline()+1"}, fn_gets));
  lib.add(make_symbol("getchar", "read a character from stdin",
                      "int getchar(void);", {"STATEFUL"}, fn_getchar));
  lib.add(make_symbol("puts", "write a string to stdout",
                      "int puts(const char *s);",
                      {"NONNULL 1", "ARG 1 CSTRING", "CALLS strlen"}, fn_puts));
  lib.add(make_symbol("printf", "formatted write to stdout",
                      "int printf(const char *format, ...);",
                      {"NONNULL 1", "ARG 1 CSTRING", "VARARGS"}, fn_printf));
}

}  // namespace healers::simlib
