#include "xml/xml.hpp"

#include <algorithm>
#include <array>
#include <charconv>

namespace healers::xml {

// Elements carry a handful of attributes and children: the first insert
// reserves room for several, so building a node rarely regrows its vectors.
constexpr std::size_t kFirstSlots = 4;

Node& Node::set_attr(std::string key, std::string value) {
  for (auto& [k, v] : attrs_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  if (attrs_.empty()) attrs_.reserve(kFirstSlots);
  attrs_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Node& Node::add_child(std::string name) { return add_child(Node(std::move(name))); }

Node& Node::add_child(Node node) {
  if (children_.empty()) children_.reserve(kFirstSlots);
  children_.push_back(std::make_unique<Node>(std::move(node)));
  return *children_.back();
}

Node& Node::set_text(std::string text) {
  text_ = std::move(text);
  return *this;
}

Node& Node::add_text_child(std::string name, std::string text) {
  Node& c = add_child(std::move(name));
  c.set_text(std::move(text));
  return c;
}

const std::string_view* AttrReader::find(std::string_view key, Need need) {
  if (error_) return nullptr;
  const std::string_view* raw = in_.attr(key);
  if (raw == nullptr && need == Need::kRequired) {
    std::string message = "<";
    message.append(in_.name()).append("> missing attribute ").append(key);
    error_.emplace(std::move(message));
  }
  return raw;
}

void AttrReader::malformed(std::string_view key, std::string_view raw) {
  std::string message = "<";
  message.append(in_.name()).append("> malformed attribute ").append(key);
  message.append("=\"").append(raw).append("\"");
  error_.emplace(std::move(message));
}

void AttrReader::str(std::string_view key, std::string& field, Need need) {
  if (const std::string_view* raw = find(key, need)) field.assign(*raw);
}

// from_chars takes a sign only into a signed value, so this parse refuses
// one; it refuses empty text and overflow too. Hex is written "0x" first.
bool AttrReader::digits(std::string_view key, Need need, int base, std::uint64_t max,
                        std::uint64_t& value) {
  const std::string_view* raw = find(key, need);
  if (raw == nullptr) return false;
  std::string_view text = *raw;
  const bool prefixed = base != 16 || text.starts_with("0x");
  if (base == 16 && prefixed) text.remove_prefix(2);
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value, base);
  if (prefixed && error == std::errc{} && stop == end && value <= max) return true;
  malformed(key, *raw);
  return false;
}

bool AttrReader::signed_digits(std::string_view key, Need need, std::int64_t min,
                               std::int64_t max, std::int64_t& value) {
  const std::string_view* raw = find(key, need);
  if (raw == nullptr) return false;
  const char* const end = raw->data() + raw->size();
  const auto [stop, error] = std::from_chars(raw->data(), end, value);
  if (error == std::errc{} && stop == end && value >= min && value <= max) return true;
  malformed(key, *raw);
  return false;
}

void AttrReader::hex(std::string_view key, std::uint64_t& field, Need need) {
  std::uint64_t value = 0;
  if (digits(key, need, 16, std::numeric_limits<std::uint64_t>::max(), value)) field = value;
}

bool AttrReader::word_index(std::string_view key, Need need,
                            std::span<const std::string_view> names, std::size_t& index) {
  const std::string_view* raw = find(key, need);
  if (raw == nullptr) return false;
  for (index = 0; index < names.size(); ++index) {
    if (!names[index].empty() && names[index] == *raw) return true;
  }
  malformed(key, *raw);
  return false;
}

void escape_into(std::string_view raw, std::string& out) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    std::string_view entity;
    switch (raw[i]) {
      case '&':
        entity = "&amp;";
        break;
      case '<':
        entity = "&lt;";
        break;
      case '>':
        entity = "&gt;";
        break;
      case '"':
        entity = "&quot;";
        break;
      case '\'':
        entity = "&apos;";
        break;
      default:
        continue;
    }
    out.append(raw.substr(run, i - run));
    out.append(entity);
    run = i + 1;
  }
  out.append(raw.substr(run));
}

std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  escape_into(raw, out);
  return out;
}

namespace {

void serialize_into(const Node& node, int indent, std::string& out) {
  const std::size_t pad = static_cast<std::size_t>(indent) * 2;
  out.append(pad, ' ');
  out += '<';
  out += node.name();
  for (const auto& [k, v] : node.attrs()) {
    out += ' ';
    out += k;
    out += "=\"";
    escape_into(v, out);
    out += '"';
  }
  const bool empty = node.children().empty() && node.text().empty();
  if (empty) {
    out += "/>\n";
    return;
  }
  out += '>';
  if (node.children().empty()) {
    // Pure text element stays on one line: <name>text</name>
    escape_into(node.text(), out);
    out += "</";
    out += node.name();
    out += ">\n";
    return;
  }
  out += '\n';
  if (!node.text().empty()) {
    out.append(pad + 2, ' ');
    escape_into(node.text(), out);
    out += '\n';
  }
  for (const auto& child : node.children()) {
    serialize_into(*child, indent + 1, out);
  }
  out.append(pad, ' ');
  out += "</";
  out += node.name();
  out += ">\n";
}

// Byte classes as the C locale's std::isalnum and std::isspace give them, so
// a byte >= 0x80 is neither a name character nor whitespace.
struct ByteClasses {
  std::array<bool, 256> name{};
  std::array<bool, 256> space{};

  constexpr ByteClasses() {
    for (int c = '0'; c <= '9'; ++c) name[c] = true;
    for (int c = 'a'; c <= 'z'; ++c) name[c] = true;
    for (int c = 'A'; c <= 'Z'; ++c) name[c] = true;
    for (const char c : {'_', '-', '.', ':'}) name[static_cast<unsigned char>(c)] = true;
    for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
      space[static_cast<unsigned char>(c)] = true;
    }
  }
};
constexpr ByteClasses kBytes;

bool is_space(char ch) noexcept { return kBytes.space[static_cast<unsigned char>(ch)]; }
bool is_name_char(char ch) noexcept { return kBytes.name[static_cast<unsigned char>(ch)]; }

}  // namespace

void Reader::reset(std::string_view document) {
  doc_ = document;
  pos_ = 0;
  error_.reset();
  name_ = {};
  attrs_.clear();
  attrs_.reserve(kTagAttrs);
  level_ = 0;
  depth_ = 0;
  skip_ws();
  if (doc_.compare(pos_, 5, "<?xml") == 0) {
    const std::size_t end = doc_.find("?>", pos_);
    pos_ = (end == std::string_view::npos) ? doc_.size() : end + 2;
  }
  skip_ws_and_comments();
  if (peek() != '<') {
    fail("expected '<'");
    return;
  }
  start_tag();
}

// Reads until the next child start tag at `level` + 1 (true), or past the
// end tag of the element at `level` (false). Deeper elements on the way are
// read and checked, and left unvisited.
bool Reader::next_child(std::size_t level) {
  while (ok() && depth_ >= level) {
    if (!content(nullptr) || end_tag()) continue;
    const std::size_t child = depth_ + 1;
    if (start_tag() && child == level + 1) return true;
  }
  return false;
}

void Reader::text(std::string& out) {
  out.clear();
  const std::size_t level = level_;
  while (ok() && depth_ >= level) {
    if (!content(depth_ == level ? &out : nullptr) || end_tag()) continue;
    start_tag();
  }
  while (!out.empty() && is_space(out.back())) out.pop_back();
}

Status Reader::finish(Status decoded, std::string_view prefix) {
  while (next_child(1)) {
    // The root's unread children are read and checked, nothing more.
  }
  if (ok()) {
    skip_ws_and_comments();
    if (pos_ != doc_.size()) fail("trailing content after document element");
  }
  if (error_) return Error(std::string(prefix) + error_->message);
  return decoded;
}

// Reads the open element's character data, entities and comments up to its
// next tag, appending the data to *text when text is set. Whitespace before
// the data's first other byte is never kept.
bool Reader::content(std::string* text) {
  for (;;) {
    if (text == nullptr) {
      pos_ = find_either('<', '&');
    } else {
      if (text->empty()) skip_ws();
      append_run('<', '&', *text);
    }
    if (eof()) return fail("unterminated element <" + std::string(open_[depth_ - 1]) + ">");
    if (doc_[pos_] == '&') {
      if (!entity(text)) return false;
      continue;
    }
    if (!skip_comment()) return true;
  }
}

// At "</": reads the end tag of the innermost open element. False when the
// tag at pos_ is a start tag.
bool Reader::end_tag() {
  if (doc_.compare(pos_, 2, "</") != 0) return false;
  pos_ += 2;
  const std::string_view close = scan_name();
  const std::string_view open = open_[depth_ - 1];
  if (close != open) {
    fail("mismatched close tag </" + std::string(close) + "> for <" + std::string(open) + ">");
  } else {
    skip_ws();
    if (take() != '>') fail("expected '>' in close tag");
  }
  --depth_;
  return true;
}

// At '<': reads a start tag, which becomes the current one.
bool Reader::start_tag() {
  if (depth_ == kMaxDepth) {
    return fail("elements nested deeper than " + std::to_string(kMaxDepth));
  }
  ++pos_;
  name_ = scan_name();
  if (name_.empty()) return fail("expected element name");
  attrs_.clear();
  scratch_.clear();
  level_ = depth_ + 1;
  for (;;) {
    skip_ws();
    if (peek() == '/') {
      take();
      if (take() != '>') return fail("expected '>' after '/'");
      return true;  // self-closing: nothing to open
    }
    if (peek() == '>') {
      take();
      open_[depth_++] = name_;
      return true;
    }
    const std::size_t at = pos_;
    const std::string_view key = scan_name();
    if (key.empty()) return fail("expected attribute name");
    if (attr(key) != nullptr) {
      pos_ = at;
      return fail("duplicate attribute name");
    }
    skip_ws();
    if (take() != '=') return fail("expected '=' after attribute name");
    skip_ws();
    std::string_view value;
    if (!attr_value(value)) return false;
    attrs_.emplace_back(key, value);
  }
}

// A value without entities is a view of the document; one with entities is
// decoded into scratch_.
bool Reader::attr_value(std::string_view& value) {
  const char quote = take();
  if (quote != '"' && quote != '\'') return fail("expected quoted attribute value");
  const std::size_t stop = find_either(quote, '&');
  if (stop < doc_.size() && doc_[stop] == quote) {
    value = doc_.substr(pos_, stop - pos_);
    pos_ = stop + 1;
    return true;
  }
  if (scratch_.capacity() < doc_.size()) scratch_.reserve(doc_.size());
  const std::size_t begin = scratch_.size();
  for (;;) {
    append_run(quote, '&', scratch_);
    if (eof()) return fail("unterminated attribute value");
    if (doc_[pos_] == quote) break;
    if (!entity(&scratch_)) return false;
  }
  ++pos_;  // closing quote
  value = std::string_view(scratch_).substr(begin);
  return true;
}

// At '&': reads one entity, appending its character to *out when out is set.
bool Reader::entity(std::string* out) {
  // An entity's ';' is at most six bytes past its '&'.
  const std::size_t semi = doc_.substr(pos_, 7).find(';');
  if (semi == std::string_view::npos) return fail("unterminated entity");
  const std::string_view name = doc_.substr(pos_ + 1, semi - 1);
  pos_ += semi + 1;
  char decoded = '\0';
  if (name == "amp") {
    decoded = '&';
  } else if (name == "lt") {
    decoded = '<';
  } else if (name == "gt") {
    decoded = '>';
  } else if (name == "quot") {
    decoded = '"';
  } else if (name == "apos") {
    decoded = '\'';
  } else {
    return fail("unknown entity &" + std::string(name) + ";");
  }
  if (out != nullptr) *out += decoded;
  return true;
}

// Records the first syntax error, at pos_.
bool Reader::fail(std::string_view what) {
  if (error_) return false;
  std::size_t line = 1;
  std::size_t col = 1;
  for (std::size_t i = 0; i < pos_ && i < doc_.size(); ++i) {
    if (doc_[i] == '\n') {
      ++line;
      col = 1;
    } else {
      ++col;
    }
  }
  error_.emplace("line " + std::to_string(line) + ":" + std::to_string(col) + ": " +
                 std::string(what));
  return false;
}

void Reader::skip_ws() noexcept {
  std::size_t at = pos_;
  while (at < doc_.size() && is_space(doc_[at])) ++at;
  pos_ = at;
}

bool Reader::skip_comment() noexcept {
  if (doc_.compare(pos_, 4, "<!--") != 0) return false;
  const std::size_t end = doc_.find("-->", pos_ + 4);
  pos_ = (end == std::string_view::npos) ? doc_.size() : end + 3;
  return true;
}

void Reader::skip_ws_and_comments() noexcept {
  for (;;) {
    skip_ws();
    if (!skip_comment()) return;
  }
}

// The run of name characters at pos_ (empty when there is none).
std::string_view Reader::scan_name() noexcept {
  const std::size_t start = pos_;
  std::size_t at = start;
  while (at < doc_.size() && is_name_char(doc_[at])) ++at;
  pos_ = at;
  return doc_.substr(start, at - start);
}

// The offset of the first `a` or `b` at or after pos_, or the document's
// size.
std::size_t Reader::find_either(char a, char b) const noexcept {
  std::size_t at = pos_;
  while (at < doc_.size() && doc_[at] != a && doc_[at] != b) ++at;
  return at;
}

// Appends the bytes before the next `a` or `b` (or the end) to out, and
// moves past them.
void Reader::append_run(char a, char b, std::string& out) {
  const std::size_t stop = find_either(a, b);
  out.append(doc_.substr(pos_, stop - pos_));
  pos_ = stop;
}

std::string serialize(const Node& root) {
  std::string out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  serialize_into(root, 0, out);
  return out;
}

std::string serialize_fragment(const Node& root, int indent) {
  std::string out;
  serialize_into(root, indent, out);
  return out;
}

}  // namespace healers::xml
