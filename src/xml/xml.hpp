// Minimal self-describing XML infrastructure.
//
// HEALERS exchanges three document kinds as XML (paper §2.3, §3.1, §3.3):
//   * library declaration files (function prototypes, §3.1),
//   * robust-API specifications derived by fault injection (§2.2),
//   * profiling logs shipped to the central collector server (§2.3, Fig 5).
//
// The documents are self-describing: the collector extracts which functions
// were wrapped and what was collected purely from the document structure.
// Writers build an ordered element tree (Node) and serialize it. Readers
// never build one: a decoder walks a document once with a forward-only pull
// reader (Reader), straight into the caller's record, for the subset HEALERS
// emits (elements, attributes, character data, comments).
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/result.hpp"

namespace healers::xml {

// One element of a document being written. Attribute order and child order
// are preserved: documents are compared textually in tests and must
// round-trip byte-for-byte.
class Node {
 public:
  explicit Node(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // Sets an attribute; setting one again replaces its value in place.
  Node& set_attr(std::string key, std::string value);
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& attrs() const noexcept {
    return attrs_;
  }

  // Appends a child element and returns a reference to it (stable: children
  // are held by unique_ptr).
  Node& add_child(std::string name);
  Node& add_child(Node node);
  [[nodiscard]] const std::vector<std::unique_ptr<Node>>& children() const noexcept {
    return children_;
  }

  Node& set_text(std::string text);
  [[nodiscard]] const std::string& text() const noexcept { return text_; }

  // Convenience: add <name>text</name> child.
  Node& add_text_child(std::string name, std::string text);

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> attrs_;
  std::vector<std::unique_ptr<Node>> children_;
  std::string text_;
};

// Elements nest at most this deep; the reader refuses a document that nests
// deeper. A HEALERS document nests at most four deep (<campaign>,
// <robust-spec>, <arg>, <verdict>).
inline constexpr std::size_t kMaxDepth = 64;

// A forward-only pull reader over one document. It stands at one start tag
// at a time and holds its name and attributes; a value is a view into the
// document, or into the reader's own buffer when it holds an entity. A
// decoder walks the elements it wants with children() and text(); whatever
// it leaves unread is still read and checked, and finish() reports the
// document's first syntax error wherever it stands:
//
//   line L:C: <what is wrong>
//
// The reader keeps the prolog, comments, both quote styles and the five
// predefined entities; it trims character data and refuses a repeated
// attribute, trailing content after the root element, and nesting deeper
// than kMaxDepth. It loops instead of recursing, so no document can exhaust
// the stack.
class Reader {
 public:
  // Reads the prolog and the root element's start tag. The document must
  // outlive the reader and every view it hands out.
  explicit Reader(std::string_view document) { reset(document); }
  explicit Reader(const char* document) : Reader(std::string_view(document)) {}
  explicit Reader(std::string&& document) = delete;
  // A reader at no document until reset(): it reads as an error.
  Reader() : error_(Error("no document")) {}
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  // Starts over at another document, as the constructor does, keeping the
  // buffers this reader has grown: a reader reused across documents stops
  // allocating once they fit.
  void reset(std::string_view document);
  void reset(const char* document) { reset(std::string_view(document)); }
  void reset(std::string&& document) = delete;

  // Whether no syntax error has been met yet.
  [[nodiscard]] bool ok() const noexcept { return !error_.has_value(); }
  // The current start tag's element name.
  [[nodiscard]] std::string_view name() const noexcept { return name_; }
  // The current start tag's value of attribute `key`, or nullptr.
  [[nodiscard]] const std::string_view* attr(std::string_view key) const noexcept {
    for (const auto& [k, v] : attrs_) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  // Calls visit(name) at the start tag of each child of the current element,
  // in document order, and returns past the element's end tag. What visit
  // leaves unread of a child is skipped.
  template <class Visit>
  void children(Visit&& visit) {
    for (const std::size_t level = level_; next_child(level);) visit(name_);
  }
  // Reads the current element's character data into `out`, entities decoded,
  // children left out and surrounding whitespace trimmed, and returns past
  // the element's end tag.
  void text(std::string& out);

  // Reads the rest of the document. Returns its first syntax error, after
  // `prefix`; a document without one returns `decoded`, the decoder's own
  // verdict. A syntax error outranks any other.
  [[nodiscard]] Status finish(Status decoded, std::string_view prefix = {});

 private:
  bool next_child(std::size_t level);
  bool content(std::string* text);
  bool end_tag();
  bool start_tag();
  bool attr_value(std::string_view& value);
  bool entity(std::string* out);
  bool fail(std::string_view what);

  [[nodiscard]] bool eof() const noexcept { return pos_ >= doc_.size(); }
  [[nodiscard]] char peek() const noexcept { return eof() ? '\0' : doc_[pos_]; }
  char take() noexcept { return eof() ? '\0' : doc_[pos_++]; }
  void skip_ws() noexcept;
  void skip_ws_and_comments() noexcept;
  bool skip_comment() noexcept;
  std::string_view scan_name() noexcept;
  [[nodiscard]] std::size_t find_either(char a, char b) const noexcept;
  void append_run(char a, char b, std::string& out);

  // Room for the attributes of a HEALERS start tag, reserved once.
  static constexpr std::size_t kTagAttrs = 12;

  std::string_view doc_;
  std::size_t pos_ = 0;
  std::optional<Error> error_;
  // The current start tag, and its level (the root's is 1).
  std::string_view name_;
  std::vector<std::pair<std::string_view, std::string_view>> attrs_;
  std::size_t level_ = 0;
  // Decoded attribute values of the current start tag. It holds at least the
  // document's size before the first one, so views into it stay valid.
  std::string scratch_;
  // The names of the open elements, outermost first.
  std::array<std::string_view, kMaxDepth> open_;
  std::size_t depth_ = 0;
};

// A decoder's first error. An element's children fall into sections the
// decoder numbers in its reading order (a profile's <function> rows, then
// its <errors>). The error kept is the first, in document order, of the
// lowest-numbered section that has one, wherever the document puts that
// section.
class FirstError {
 public:
  // Whether an error in section `rank` would still be kept: whether its
  // children still need decoding.
  [[nodiscard]] bool wants(unsigned rank) const noexcept { return status_.ok() || rank < rank_; }
  void keep(unsigned rank, Status status) {
    if (!status.ok() && wants(rank)) {
      status_ = std::move(status);
      rank_ = rank;
    }
  }
  [[nodiscard]] const Status& status() const noexcept { return status_; }

 private:
  Status status_;
  unsigned rank_ = 0;
};

// Decoders refill a caller's lists in place: slot `used` of `items` (reused
// when the list holds one, else appended) is the next element, and the
// decoder trims the list to `used` when it is done.
template <class T>
T& next_slot(std::vector<T>& items, std::size_t& used) {
  if (used == items.size()) items.emplace_back();
  return items[used++];
}

// Reads each child named `row` of the current element into the next slot of
// `items` with read(item), which returns its Status, and trims `items` to
// what it read. Decoding stops at the first error, which it returns.
template <class T, class Read>
Status read_rows(Reader& in, std::string_view row, std::vector<T>& items, Read read) {
  std::size_t used = 0;
  Status status;
  in.children([&](std::string_view name) {
    if (name == row && status.ok()) status = read(next_slot(items, used));
  });
  items.resize(used);
  return status;
}

// Decodes a whole document into a fresh T with an element decoder,
// read(in, value), whose verdict finish() gives (a syntax error after
// `prefix`).
template <class T>
[[nodiscard]] Result<T> decode(std::string_view document, Status (*read)(Reader&, T&),
                               std::string_view prefix = {}) {
  Reader in(document);
  T value{};
  if (Status decoded = in.finish(read(in, value), prefix); !decoded.ok()) return decoded.error();
  return value;
}

// Whether a decoder needs an attribute. An absent optional attribute leaves
// its field as it is, so the field's default is the attribute's default.
enum class Need : bool { kRequired, kOptional };
inline constexpr Need kOptional = Need::kOptional;

// The one strict attribute reader behind every XML decoder. Each call names
// an attribute of one element and the field it fills. A required attribute
// that is absent, or a value the field cannot hold, is an error:
//
//   <elem> missing attribute k
//   <elem> malformed attribute k="v"
//
// It reads the start tag a Reader stands at, so it is made there and used
// before the reader moves on. It keeps the first error; once it has one,
// later reads leave their fields alone. A successful read builds no string
// but the field's own.
class AttrReader {
 public:
  explicit AttrReader(const Reader& in) noexcept : in_(in) {}

  [[nodiscard]] bool ok() const noexcept { return !error_.has_value(); }
  // The first error. Only when !ok().
  [[nodiscard]] const Error& error() const { return *error_; }
  // Whether the element carries `key`: for attributes that come in pairs.
  [[nodiscard]] bool has(std::string_view key) const noexcept { return in_.attr(key) != nullptr; }

  // Any text, the empty string included.
  void str(std::string_view key, std::string& field, Need need = Need::kRequired);
  // Decimal digits whose value `field` holds. No sign: a signed field read
  // here is a count or an index, never negative.
  template <std::integral I>
  void num(std::string_view key, I& field, Need need = Need::kRequired) {
    std::uint64_t value = 0;
    if (digits(key, need, 10, std::numeric_limits<I>::max(), value)) field = static_cast<I>(value);
  }
  // A decimal with an optional leading '-', within `field`'s range.
  template <std::signed_integral I>
  void signed_num(std::string_view key, I& field, Need need = Need::kRequired) {
    std::int64_t value = 0;
    if (signed_digits(key, need, std::numeric_limits<I>::min(), std::numeric_limits<I>::max(),
                      value)) {
      field = static_cast<I>(value);
    }
  }
  // "0x" and hex digits, as an encoder writes addresses and digests.
  void hex(std::string_view key, std::uint64_t& field, Need need = Need::kRequired);
  // "0" or "1".
  void flag(std::string_view key, bool& field, Need need = Need::kRequired) {
    std::uint64_t value = 0;
    if (digits(key, need, 10, 1, value)) field = value != 0;
  }
  // One of an enum's words: names[i] names the enumerator with value i (an
  // empty name is no word, so a bool table can name only `true`).
  template <class E, std::size_t N>
  void word(std::string_view key, E& field, const std::array<std::string_view, N>& names,
            Need need = Need::kRequired) {
    std::size_t index = 0;
    if (word_index(key, need, names, index)) field = static_cast<E>(index);
  }

 private:
  // The attribute's value; nullptr when absent (an error if required) or
  // when an earlier read failed.
  const std::string_view* find(std::string_view key, Need need);
  bool digits(std::string_view key, Need need, int base, std::uint64_t max,
              std::uint64_t& value);
  bool signed_digits(std::string_view key, Need need, std::int64_t min, std::int64_t max,
                     std::int64_t& value);
  bool word_index(std::string_view key, Need need, std::span<const std::string_view> names,
                  std::size_t& index);
  void malformed(std::string_view key, std::string_view raw);

  const Reader& in_;
  std::optional<Error> error_;
};

// The word names[value] (the inverse of AttrReader::word).
template <class E, std::size_t N>
[[nodiscard]] std::string name_of(const std::array<std::string_view, N>& names, E value) {
  return std::string(names[static_cast<std::size_t>(value)]);
}

// Serializes with 2-space indentation and a standard declaration header.
[[nodiscard]] std::string serialize(const Node& root);
// Serializes without the <?xml ...?> header (for embedding).
[[nodiscard]] std::string serialize_fragment(const Node& root, int indent = 0);

// Escapes &, <, >, ", ' for use in character data / attribute values:
// escape_into appends the escaped text to out, escape returns it.
void escape_into(std::string_view raw, std::string& out);
[[nodiscard]] std::string escape(std::string_view raw);

}  // namespace healers::xml
