// The binary record engine behind every HEALERS wire format.
//
// Every binary twin of a HEALERS document is a *record*: a magic, then fields
// in a fixed order. A record type declares its fields once, in wire order,
// as a visitor next to the codec that owns it:
//
//   template <> struct Layout<profile::ProfileReport> {
//     static constexpr Kind kKind = Kind::kProfile;
//     template <class V, class R> static void fields(V& v, R& r) {
//       v.str(r.process);
//       v.list(r.functions);  // elements declare a Layout without a kKind
//       ...
//     }
//   };
//
// encode() runs the list with a Writer (R = const T), decode_into() with a
// strict Reader (R = T). Field vocabulary, all integers little-endian fixed
// width:
//
//   u32(x) / u64(x)     an integer or enum in 4 / 8 bytes; i64 is its
//                       two's-complement image
//   u32(e, last)        an enum or integer stored as u32, at most `last`
//                       (an int bounded by INT_MAX reads no negative word)
//   str(s)              u32 length + bytes
//   flags(b...)         a u32 bit word, first argument in bit 0; a
//                       std::optional argument contributes its presence
//   constant(k)         a u32 that must equal k
//   absent(x)           a u32 0 in place of a field this record does not
//                       carry; x reads back as its zero value
//   list(xs)            u32 count + elements (std::string or records)
//   map(m)              u32 count + (u32 key, u64 value), keys ascending
//   nested(x)           a whole record (magic included) inside a str
//   xml(x)              x's XML document inside a str
//
// A field group several records share (the campaign parameters) declares a
// Layout without a kKind, and each record runs it in place:
// Layout<U>::fields(v, r.part).
//
// The Reader is strict: a decoded value re-encodes to exactly the bytes it
// came from. An unknown magic, truncation, trailing bytes, an enum past its
// last value, unknown flag bits, an integer wider than its field, keys out of
// order and a wrong constant are errors, never a partial or normalised
// value. Counts are checked against the bytes left before anything grows,
// so no payload makes the decoder allocate more than its own size can
// describe. (xml() is the one field that is only as strict as the XML
// decoder.)
//
// decode_into() writes into a caller's value and reuses its storage: strings
// and list elements keep their capacity and maps their nodes, so a hot loop
// that decodes into one value per kind stops allocating once the value has
// grown. Every field a layout lists is overwritten, so a value reused across
// decodes ends equal to a fresh decode(); members a layout does not list
// (in-memory state such as CampaignResult::engine) are left as they are.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/map_reuse.hpp"
#include "support/result.hpp"
#include "xml/xml.hpp"

namespace healers::fleet {

// The wire primitives every record is built from. Public so producers that
// must skip the record engine (the fleet simulator's hot HFB1 writer) frame
// bytes the same way.
namespace codec {

// The wire is little-endian; this is the identity on little-endian hosts.
template <class U>
constexpr U little_endian(U v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    return v;
  } else {
    U swapped = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i, v >>= 8) swapped = (swapped << 8) | (v & 0xffU);
    return swapped;
  }
}

template <class U>
void put(std::string& out, U v) {
  char bytes[sizeof(U)];
  v = little_endian(v);
  std::memcpy(bytes, &v, sizeof(U));
  out.append(bytes, sizeof(U));
}

inline void put_u32(std::string& out, std::uint32_t v) { put(out, v); }
inline void put_u64(std::string& out, std::uint64_t v) { put(out, v); }
inline void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

// Bounds-checked read cursor over a binary payload. Every read either
// succeeds completely or marks the cursor failed; callers check ok() once.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  // A str field, viewed in place.
  std::string_view str() {
    const std::uint32_t len = u32();
    return take(len) ? data_.substr(pos_ - len, len) : std::string_view();
  }

 private:
  template <class U>
  U get() {
    U v = 0;
    if (take(sizeof(U))) std::memcpy(&v, data_.data() + pos_ - sizeof(U), sizeof(U));
    return little_endian(v);
  }
  bool take(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace codec

namespace record {

// --- the one magic table -------------------------------------------------------

// Every binary record kind, named by its magic. docs/architecture.md ("Wire
// records") maps each to its type, field list and XML twin.
enum class Kind : std::uint8_t {
  kUnknown,        // no magic: XML, or bytes this build does not know
  kProfile,        // HFB1   profile::ProfileReport
  kDossier,        // HDB1   incident::Dossier
  kSurface,        // HSP1   debloat::SurfaceProfile
  kStream,         // HFDS1  framed document stream
  kCampaign,       // HCB1   injector::CampaignResult
  kRequest,        // HRQ1   server::DeriveRequest
  kResponse,       // HRS1   server::DeriveResponse
  kCampaignEntry,  // HSCE1  core::CachedCampaign
  kProfileEntry,   // HSIP1  lattice::SignatureProfile
  kRepairEntry,    // HSRP1  core::CachedRepairPolicy
  kSurfaceEntry,   // HSSP1  core::SurfaceScope
};

struct Magic {
  Kind kind;
  std::string_view bytes;
  std::string_view name;  // prefixes decode errors
};

inline constexpr std::array<Magic, 11> kMagics{{
    {Kind::kProfile, "HFB1", "binary document"},
    {Kind::kDossier, "HDB1", "binary dossier"},
    {Kind::kSurface, "HSP1", "binary surface profile"},
    {Kind::kStream, "HFDS1\n", "document stream"},
    {Kind::kCampaign, "HCB1", "binary campaign"},
    {Kind::kRequest, "HRQ1", "binary request"},
    {Kind::kResponse, "HRS1", "binary response"},
    {Kind::kCampaignEntry, "HSCE1", "cache entry"},
    {Kind::kProfileEntry, "HSIP1", "profile entry"},
    {Kind::kRepairEntry, "HSRP1", "repair entry"},
    {Kind::kSurfaceEntry, "HSSP1", "surface entry"},
}};

[[nodiscard]] constexpr const Magic& magic(Kind kind) noexcept {
  return kMagics[static_cast<std::size_t>(kind) - 1];
}

static_assert([] {
  for (std::size_t i = 0; i < kMagics.size(); ++i) {
    if (kMagics[i].kind != static_cast<Kind>(i + 1)) return false;
  }
  return true;
}(), "kMagics is indexed by Kind");

// The record kind a payload's magic names; kUnknown when none matches.
[[nodiscard]] constexpr Kind sniff(std::string_view payload) noexcept {
  for (const Magic& m : kMagics) {
    if (payload.starts_with(m.bytes)) return m.kind;
  }
  return Kind::kUnknown;
}

// --- the engine ------------------------------------------------------------------

// Specialized next to each record type's codec (see the file comment).
template <class T>
struct Layout;

template <class T>
[[nodiscard]] std::string encode(const T& value);
template <class T>
[[nodiscard]] Status decode_into(std::string_view payload, T& value);

class Writer {
 public:
  explicit Writer(std::string& out) noexcept : out_(out) {}

  template <class I>
  void u32(I value) { codec::put_u32(out_, static_cast<std::uint32_t>(value)); }
  template <class E>
  void u32(E value, E /*last*/) { u32(value); }
  template <class I>
  void u64(I value) { codec::put_u64(out_, static_cast<std::uint64_t>(value)); }
  void str(std::string_view s) { codec::put_str(out_, s); }
  void constant(std::uint32_t value) { u32(value); }
  template <class X>
  void absent(const X& /*field*/) { constant(0); }

  template <class... Bits>
  void flags(const Bits&... bits) {
    std::uint32_t word = 0;
    std::uint32_t bit = 1;
    ((word |= is_set(bits) ? bit : 0, bit <<= 1), ...);
    u32(word);
  }

  template <class T>
  void list(const std::vector<T>& items) {
    u32(items.size());
    for (const T& item : items) element(item);
  }

  void map(const std::map<int, std::uint64_t>& entries) {
    u32(entries.size());
    for (const auto& [key, value] : entries) {
      u32(key);
      u64(value);
    }
  }

  template <class T>
  void nested(const T& value) { str(encode(value)); }
  template <class T>
  void xml(const T& value) { str(xml::serialize(value.to_xml())); }

 private:
  static bool is_set(bool bit) { return bit; }
  template <class X>
  static bool is_set(const std::optional<X>& bit) { return bit.has_value(); }

  void element(const std::string& s) { str(s); }
  template <class T>
  void element(const T& item) { Layout<T>::fields(*this, item); }

  std::string& out_;
};

// Appends value's fields (no magic) to out.
template <class T>
void write(std::string& out, const T& value) {
  Writer writer(out);
  Layout<T>::fields(writer, value);
}

template <class T>
std::string encode(const T& value) {
  std::string out(magic(Layout<T>::kKind).bytes);
  write(out, value);
  return out;
}

// The fewest wire bytes one list element of type T can take: the encoding of
// a default-constructed T (empty strings and lists, absent options).
template <class T>
std::size_t min_bytes() {
  if constexpr (std::is_same_v<T, std::string>) {
    return 4;
  } else {
    static const std::size_t bytes = [] {
      std::string out;
      write(out, T{});
      return out.size();
    }();
    return bytes;
  }
}

class Reader {
 public:
  explicit Reader(std::string_view data) noexcept : cursor_(data) {}

  [[nodiscard]] bool ok() const noexcept { return cursor_.ok() && error_.empty(); }
  [[nodiscard]] bool at_end() const noexcept { return cursor_.at_end(); }
  [[nodiscard]] std::string error() const { return error_.empty() ? "truncated" : error_; }

  template <class I>
  void u32(I& value) { narrow(value, cursor_.u32()); }
  template <class E>
  void u32(E& value, E last) {
    const std::uint32_t wire = cursor_.u32();
    if (wire > static_cast<std::uint32_t>(last)) {
      return fail(std::is_enum_v<E> ? "enum out of range" : "integer out of range");
    }
    value = static_cast<E>(wire);
  }
  template <class I>
  void u64(I& value) { narrow(value, cursor_.u64()); }
  void str(std::string& s) { s.assign(cursor_.str()); }
  void constant(std::uint32_t value) {
    if (cursor_.u32() != value && cursor_.ok()) fail("unexpected constant");
  }
  template <class X>
  void absent(X& field) {
    constant(0);
    field = X{};
  }

  template <class... Bits>
  void flags(Bits&... bits) {
    const std::uint32_t word = cursor_.u32();
    if ((word >> sizeof...(Bits)) != 0) return fail("unknown flag bits");
    std::uint32_t bit = 1;
    ((set(bits, (word & bit) != 0), bit <<= 1), ...);
  }

  // Resizing keeps the elements a reused value already holds, and their
  // storage; the count is checked before the list grows.
  template <class T>
  void list(std::vector<T>& items) {
    const std::uint32_t n = count(min_bytes<T>());
    items.resize(n);
    for (std::uint32_t i = 0; i < n && ok(); ++i) element(items[i]);
  }

  // Refills the nodes a reused map already holds before allocating more.
  void map(std::map<int, std::uint64_t>& entries) {
    const std::uint32_t n = count(12);
    std::map<int, std::uint64_t> spare;
    spare.swap(entries);
    for (std::uint32_t i = 0; i < n && ok(); ++i) {
      int key = 0;
      std::uint64_t value = 0;
      u32(key);
      u64(value);
      if (!ok()) return;
      if (i > 0 && key <= entries.rbegin()->first) return fail("map keys out of order");
      insert_reusing(entries, spare, key, value);
    }
  }

  template <class T>
  void nested(T& value) {
    const std::string_view payload = cursor_.str();
    if (!cursor_.ok()) return;
    if (Status decoded = decode_into(payload, value); !decoded.ok()) {
      fail(decoded.error().message);
    }
  }

  template <class T>
  void xml(T& value) {
    const std::string_view text = cursor_.str();
    if (!cursor_.ok()) return;
    xml::Reader in(text);
    if (Status decoded = in.finish(T::from_xml(in, value)); !decoded.ok()) {
      fail(decoded.error().message);
    }
  }

 private:
  template <class I, class W>
  void narrow(I& value, W wire) {
    value = static_cast<I>(wire);
    if (static_cast<W>(value) != wire) fail("integer out of range");
  }

  // A list count, refused when the bytes left cannot hold that many elements.
  std::uint32_t count(std::size_t min_element_bytes) {
    const std::uint32_t n = cursor_.u32();
    if (!cursor_.ok() || n > cursor_.remaining() / min_element_bytes) {
      if (cursor_.ok()) fail("count exceeds payload");
      return 0;
    }
    return n;
  }

  void fail(std::string_view what) {
    if (error_.empty()) error_ = what;
  }

  static void set(bool& bit, bool on) { bit = on; }
  template <class X>
  static void set(std::optional<X>& bit, bool on) {
    if (on) {
      bit.emplace();
    } else {
      bit.reset();
    }
  }

  void element(std::string& s) { str(s); }
  template <class T>
  void element(T& item) { Layout<T>::fields(*this, item); }

  codec::Cursor cursor_;
  std::string error_;
};

// The strict decoder: the payload must be exactly one T record, decoded into
// `value` in place. On an error `value` holds a partial record; decode it
// again before reading it.
template <class T>
Status decode_into(std::string_view payload, T& value) {
  const Magic& m = magic(Layout<T>::kKind);
  if (!payload.starts_with(m.bytes)) return Error(std::string(m.name) + ": bad magic");
  Reader reader(payload.substr(m.bytes.size()));
  Layout<T>::fields(reader, value);
  if (!reader.ok()) return Error(std::string(m.name) + ": " + reader.error());
  if (!reader.at_end()) return Error(std::string(m.name) + ": trailing bytes");
  return {};
}

template <class T>
[[nodiscard]] Result<T> decode(std::string_view payload) {
  T value{};
  if (Status decoded = decode_into(payload, value); !decoded.ok()) return decoded.error();
  return value;
}

}  // namespace record
}  // namespace healers::fleet
