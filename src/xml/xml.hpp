// Minimal self-describing XML infrastructure.
//
// HEALERS exchanges three document kinds as XML (paper §2.3, §3.1, §3.3):
//   * library declaration files (function prototypes, §3.1),
//   * robust-API specifications derived by fault injection (§2.2),
//   * profiling logs shipped to the central collector server (§2.3, Fig 5).
//
// The documents are self-describing: the collector extracts which functions
// were wrapped and what was collected purely from the document structure.
// This module provides an ordered element tree, a serializer, and a strict
// recursive-descent parser for the subset HEALERS emits (elements,
// attributes, character data, comments).
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

// One element. Attribute order and child order are preserved: documents are
// compared textually in tests and must round-trip byte-for-byte.
class Node {
 public:
  explicit Node(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  Node& set_attr(std::string key, std::string value);
  [[nodiscard]] const std::string* attr(std::string_view key) const noexcept;
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
  // First child with the given element name, or nullptr.
  [[nodiscard]] const Node* child(std::string_view name) const noexcept;
  // All children with the given element name.
  [[nodiscard]] std::vector<const Node*> children_named(std::string_view name) const;

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
// The reader keeps the first error; once it has one, later reads leave their
// fields alone. A successful read builds no string but the field's own.
class AttrReader {
 public:
  explicit AttrReader(const Node& node) noexcept : node_(node) {}

  [[nodiscard]] bool ok() const noexcept { return !error_.has_value(); }
  // The first error. Only when !ok().
  [[nodiscard]] const Error& error() const { return *error_; }
  // Whether the element carries `key`: for attributes that come in pairs.
  [[nodiscard]] bool has(std::string_view key) const noexcept { return node_.attr(key) != nullptr; }

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
  const std::string* find(std::string_view key, Need need);
  bool digits(std::string_view key, Need need, int base, std::uint64_t max,
              std::uint64_t& value);
  bool signed_digits(std::string_view key, Need need, std::int64_t min, std::int64_t max,
                     std::int64_t& value);
  bool word_index(std::string_view key, Need need, std::span<const std::string_view> names,
                  std::size_t& index);
  void malformed(std::string_view key, const std::string& raw);

  const Node& node_;
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

// Strict parser for the HEALERS subset. Rejects mismatched tags, unterminated
// documents, and bad entities with a position-annotated error.
[[nodiscard]] Result<Node> parse(std::string_view document);

}  // namespace healers::xml
