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

#include <cstdint>
#include <limits>
#include <memory>
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

  // Attribute lookup that parses as integer; returns fallback when missing or
  // malformed (profiling documents from older wrappers may lack fields).
  [[nodiscard]] long long attr_int(std::string_view key, long long fallback) const noexcept;

  // Strict unsigned attributes, for the decoders that must never return a
  // partial document: attr_u64 takes decimal digits only, attr_hex takes
  // "0x" and hex digits (the fields an encoder writes in hex). A missing,
  // empty, signed or non-numeric value is an error, and so is one above `max`.
  [[nodiscard]] Result<std::uint64_t> attr_u64(
      std::string_view key, std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  [[nodiscard]] Result<std::uint64_t> attr_hex(std::string_view key) const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> attrs_;
  std::vector<std::unique_ptr<Node>> children_;
  std::string text_;
};

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
