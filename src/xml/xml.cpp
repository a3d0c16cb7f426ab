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

const std::string* Node::attr(std::string_view key) const noexcept {
  for (const auto& [k, v] : attrs_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Node& Node::add_child(std::string name) { return add_child(Node(std::move(name))); }

Node& Node::add_child(Node node) {
  if (children_.empty()) children_.reserve(kFirstSlots);
  children_.push_back(std::make_unique<Node>(std::move(node)));
  return *children_.back();
}

const Node* Node::child(std::string_view name) const noexcept {
  for (const auto& c : children_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

std::vector<const Node*> Node::children_named(std::string_view name) const {
  std::vector<const Node*> out;
  for (const auto& c : children_) {
    if (c->name() == name) out.push_back(c.get());
  }
  return out;
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

const std::string* AttrReader::find(std::string_view key, Need need) {
  if (error_) return nullptr;
  const std::string* raw = node_.attr(key);
  if (raw == nullptr && need == Need::kRequired) {
    error_.emplace("<" + node_.name() + "> missing attribute " + std::string(key));
  }
  return raw;
}

void AttrReader::malformed(std::string_view key, const std::string& raw) {
  error_.emplace("<" + node_.name() + "> malformed attribute " + std::string(key) + "=\"" + raw +
                 "\"");
}

void AttrReader::str(std::string_view key, std::string& field, Need need) {
  if (const std::string* raw = find(key, need)) field = *raw;
}

// from_chars takes a sign only into a signed value, so this parse refuses
// one; it refuses empty text and overflow too. Hex is written "0x" first.
bool AttrReader::digits(std::string_view key, Need need, int base, std::uint64_t max,
                        std::uint64_t& value) {
  const std::string* raw = find(key, need);
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
  const std::string* raw = find(key, need);
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
  const std::string* raw = find(key, need);
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

// Scans names, attribute values and character data in runs: a value or text
// grows by one append per run between entities, tags and quotes.
class Parser {
 public:
  explicit Parser(std::string_view doc) : doc_(doc) {}

  Result<Node> run() {
    skip_prolog();
    auto root = parse_element();
    if (!root.ok()) return root;
    skip_ws_and_comments();
    if (pos_ != doc_.size()) {
      return Error(where() + ": trailing content after document element");
    }
    return root;
  }

 private:
  [[nodiscard]] bool eof() const noexcept { return pos_ >= doc_.size(); }
  [[nodiscard]] char peek() const noexcept { return eof() ? '\0' : doc_[pos_]; }
  char take() noexcept { return eof() ? '\0' : doc_[pos_++]; }

  [[nodiscard]] std::string where() const {
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
    return "line " + std::to_string(line) + ":" + std::to_string(col);
  }

  void skip_ws() {
    while (!eof() && is_space(doc_[pos_])) ++pos_;
  }

  bool skip_comment() {
    if (doc_.compare(pos_, 4, "<!--") != 0) return false;
    const std::size_t end = doc_.find("-->", pos_ + 4);
    pos_ = (end == std::string_view::npos) ? doc_.size() : end + 3;
    return true;
  }

  void skip_ws_and_comments() {
    for (;;) {
      skip_ws();
      if (!skip_comment()) return;
    }
  }

  void skip_prolog() {
    skip_ws();
    if (doc_.compare(pos_, 5, "<?xml") == 0) {
      const std::size_t end = doc_.find("?>", pos_);
      pos_ = (end == std::string_view::npos) ? doc_.size() : end + 2;
    }
    skip_ws_and_comments();
  }

  // The run of name characters at pos_ (empty when there is none).
  std::string_view scan_name() {
    const std::size_t start = pos_;
    while (!eof() && is_name_char(doc_[pos_])) ++pos_;
    return doc_.substr(start, pos_ - start);
  }

  // Appends the bytes before the next of `stops` (or the end) to out, and
  // moves past them.
  void append_run(std::string_view stops, std::string& out) {
    const std::size_t stop = std::min(doc_.find_first_of(stops, pos_), doc_.size());
    out.append(doc_.substr(pos_, stop - pos_));
    pos_ = stop;
  }

  // Appends the character of the entity at pos_ ('&') to out.
  Status append_entity(std::string& out) {
    // An entity's ';' is at most six bytes past its '&'.
    const std::size_t semi = doc_.substr(pos_, 7).find(';');
    if (semi == std::string_view::npos) return Error(where() + ": unterminated entity");
    const std::string_view entity = doc_.substr(pos_ + 1, semi - 1);
    pos_ += semi + 1;
    if (entity == "amp") {
      out += '&';
    } else if (entity == "lt") {
      out += '<';
    } else if (entity == "gt") {
      out += '>';
    } else if (entity == "quot") {
      out += '"';
    } else if (entity == "apos") {
      out += '\'';
    } else {
      return Error(where() + ": unknown entity &" + std::string(entity) + ";");
    }
    return {};
  }

  Result<std::string> parse_attr_value() {
    const char quote = take();
    if (quote != '"' && quote != '\'') {
      return Error(where() + ": expected quoted attribute value");
    }
    const char stops[] = {quote, '&'};
    std::string value;
    for (;;) {
      append_run(std::string_view(stops, 2), value);
      if (eof()) return Error(where() + ": unterminated attribute value");
      if (doc_[pos_] == quote) break;
      if (Status entity = append_entity(value); !entity.ok()) return entity.error();
    }
    ++pos_;  // closing quote
    return value;
  }

  Result<Node> parse_element() {
    skip_ws_and_comments();
    if (peek() != '<') return Error(where() + ": expected '<'");
    take();
    const std::string_view name = scan_name();
    if (name.empty()) return Error(where() + ": expected element name");
    Node node{std::string(name)};

    for (;;) {
      skip_ws();
      if (peek() == '/') {
        take();
        if (take() != '>') return Error(where() + ": expected '>' after '/'");
        return node;  // self-closing
      }
      if (peek() == '>') {
        take();
        break;
      }
      const std::string_view key = scan_name();
      if (key.empty()) return Error(where() + ": expected attribute name");
      skip_ws();
      if (take() != '=') return Error(where() + ": expected '=' after attribute name");
      skip_ws();
      auto value = parse_attr_value();
      if (!value.ok()) return value.error();
      node.set_attr(std::string(key), std::move(value).take());
    }

    // Content: interleaved text and child elements until the close tag. The
    // text is trimmed, so no whitespace is kept before its first other byte
    // (whitespace-only content never allocates) and trailing whitespace is
    // dropped at the close tag.
    std::string text;
    for (;;) {
      if (text.empty()) skip_ws();
      append_run("<&", text);
      if (eof()) return Error(where() + ": unterminated element <" + std::string(name) + ">");
      if (doc_[pos_] == '&') {
        if (Status entity = append_entity(text); !entity.ok()) return entity.error();
        continue;
      }
      if (doc_.compare(pos_, 4, "<!--") == 0) {
        skip_comment();
        continue;
      }
      if (doc_.compare(pos_, 2, "</") == 0) {
        pos_ += 2;
        const std::string_view close = scan_name();
        if (close != name) {
          return Error(where() + ": mismatched close tag </" + std::string(close) + "> for <" +
                       std::string(name) + ">");
        }
        skip_ws();
        if (take() != '>') return Error(where() + ": expected '>' in close tag");
        while (!text.empty() && is_space(text.back())) text.pop_back();
        node.set_text(std::move(text));
        return node;
      }
      auto child = parse_element();
      if (!child.ok()) return child;
      node.add_child(std::move(child).take());
    }
  }

  std::string_view doc_;
  std::size_t pos_ = 0;
};

}  // namespace

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

Result<Node> parse(std::string_view document) { return Parser(document).run(); }

}  // namespace healers::xml
