// Unit tests for the XML infrastructure: node operations, escaping,
// serialization shape, strict parsing, and serialize/parse round trips.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "xml/xml.hpp"

namespace healers::xml {
namespace {

TEST(XmlNode, AttributesPreserveInsertionOrderAndOverwrite) {
  Node node("n");
  node.set_attr("b", "2");
  node.set_attr("a", "1");
  node.set_attr("b", "3");  // overwrite keeps position
  ASSERT_EQ(node.attrs().size(), 2u);
  EXPECT_EQ(node.attrs()[0].first, "b");
  EXPECT_EQ(node.attrs()[0].second, "3");
  EXPECT_EQ(node.attrs()[1].first, "a");
}

TEST(XmlNode, AttrLookupReturnsNullWhenMissing) {
  Node node("n");
  EXPECT_EQ(node.attr("missing"), nullptr);
  node.set_attr("k", "v");
  ASSERT_NE(node.attr("k"), nullptr);
  EXPECT_EQ(*node.attr("k"), "v");
}

TEST(XmlAttrReader, ReadsNumbersStrictly) {
  Node node("n");
  node.set_attr("good", "42");
  node.set_attr("neg", "-7");
  node.set_attr("bad", "4x2");
  int good = 0;
  int neg = 0;
  int missing = 9;
  AttrReader reader(node);
  reader.num("good", good);
  reader.signed_num("neg", neg);
  reader.num("missing", missing, kOptional);
  ASSERT_TRUE(reader.ok()) << reader.error().message;
  EXPECT_EQ(good, 42);
  EXPECT_EQ(neg, -7);
  EXPECT_EQ(missing, 9);  // an absent optional value keeps its default

  const auto error = [&node](auto read) {
    AttrReader strict(node);
    read(strict);
    return strict.ok() ? std::string() : strict.error().message;
  };
  int field = 5;
  EXPECT_EQ(error([&](AttrReader& r) { r.num("bad", field); }), "<n> malformed attribute bad=\"4x2\"");
  EXPECT_EQ(error([&](AttrReader& r) { r.num("neg", field); }), "<n> malformed attribute neg=\"-7\"");
  EXPECT_EQ(error([&](AttrReader& r) { r.num("missing", field); }), "<n> missing attribute missing");
  EXPECT_EQ(field, 5);  // a failed read leaves its field alone
}

TEST(XmlAttrReader, BoundsEachNumberByItsField) {
  Node node("n");
  node.set_attr("byte", "255");
  node.set_attr("past", "256");
  node.set_attr("low", "-128");
  node.set_attr("below", "-129");
  node.set_attr("empty", "");
  std::uint8_t byte = 0;
  std::int8_t low = 0;
  AttrReader reader(node);
  reader.num("byte", byte);
  reader.signed_num("low", low);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(byte, 255);
  EXPECT_EQ(low, -128);
  for (const std::string_view key : {"past", "empty"}) {
    AttrReader past(node);
    past.num(key, byte);
    EXPECT_FALSE(past.ok()) << key;
  }
  for (const std::string_view key : {"below", "empty"}) {
    AttrReader below(node);
    below.signed_num(key, low);
    EXPECT_FALSE(below.ok()) << key;
  }
}

TEST(XmlAttrReader, ReadsHexFlagsWordsAndText) {
  Node node("n");
  node.set_attr("addr", "0x1a2B");
  node.set_attr("on", "1");
  node.set_attr("kind", "beta");
  node.set_attr("note", "");
  enum class Kind : std::uint8_t { kAlpha, kBeta };
  constexpr std::array<std::string_view, 2> kNames = {"alpha", "beta"};
  std::uint64_t addr = 0;
  bool on = false;
  Kind kind = Kind::kAlpha;
  std::string note = "x";
  AttrReader reader(node);
  reader.hex("addr", addr);
  reader.flag("on", on);
  reader.word("kind", kind, kNames);
  reader.str("note", note);
  ASSERT_TRUE(reader.ok()) << reader.error().message;
  EXPECT_EQ(addr, 0x1a2bu);
  EXPECT_TRUE(on);
  EXPECT_EQ(kind, Kind::kBeta);
  EXPECT_EQ(note, "");

  for (const std::string_view bad : {"1a2b", "0x", "0x-1", "0xg", "0x10000000000000000", ""}) {
    node.set_attr("addr", std::string(bad));
    AttrReader hex(node);
    hex.hex("addr", addr);
    EXPECT_FALSE(hex.ok()) << bad;
  }
  for (const std::string_view bad : {"2", "-1", "+1", "yes", ""}) {
    node.set_attr("on", std::string(bad));
    AttrReader flag(node);
    flag.flag("on", on);
    EXPECT_FALSE(flag.ok()) << bad;
  }
  for (const std::string_view bad : {"Beta", "bet", ""}) {
    node.set_attr("kind", std::string(bad));
    AttrReader word(node);
    word.word("kind", kind, kNames);
    EXPECT_FALSE(word.ok()) << bad;
  }
}

TEST(XmlAttrReader, KeepsTheFirstError) {
  Node node("n");
  node.set_attr("a", "x");
  node.set_attr("c", "3");
  int a = 1;
  int c = 1;
  AttrReader reader(node);
  reader.num("a", a);
  reader.num("b", a);
  reader.num("c", c);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.error().message, "<n> malformed attribute a=\"x\"");
  EXPECT_EQ(c, 1);  // reads after the first error do nothing
}

TEST(XmlNode, ChildLookupByName) {
  Node node("root");
  node.add_child("a");
  node.add_child("b");
  node.add_child("a");
  EXPECT_NE(node.child("a"), nullptr);
  EXPECT_EQ(node.child("zzz"), nullptr);
  EXPECT_EQ(node.children_named("a").size(), 2u);
  EXPECT_EQ(node.children_named("b").size(), 1u);
}

TEST(XmlEscape, EscapesAllFiveEntities) {
  EXPECT_EQ(escape("a&b<c>d\"e'f"), "a&amp;b&lt;c&gt;d&quot;e&apos;f");
  EXPECT_EQ(escape("plain"), "plain");
  EXPECT_EQ(escape("<<"), "&lt;&lt;");
  EXPECT_EQ(escape(""), "");
}

TEST(XmlEscape, EscapeIntoAppends) {
  std::string out = "k=";
  escape_into("a&b", out);
  escape_into(">", out);
  EXPECT_EQ(out, "k=a&amp;b&gt;");
}

TEST(XmlSerialize, EmptyElementSelfCloses) {
  Node node("empty");
  node.set_attr("k", "v");
  EXPECT_EQ(serialize_fragment(node), "<empty k=\"v\"/>\n");
}

TEST(XmlSerialize, TextOnlyElementStaysOneLine) {
  Node node("t");
  node.set_text("hello");
  EXPECT_EQ(serialize_fragment(node), "<t>hello</t>\n");
}

TEST(XmlSerialize, NestedIndentation) {
  Node root("a");
  root.add_child("b").add_text_child("c", "x");
  const std::string out = serialize_fragment(root);
  EXPECT_EQ(out, "<a>\n  <b>\n    <c>x</c>\n  </b>\n</a>\n");
}

TEST(XmlSerialize, DocumentHasDeclarationHeader) {
  Node root("doc");
  EXPECT_EQ(serialize(root).rfind("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n", 0), 0u);
}

TEST(XmlParse, SimpleDocument) {
  auto result = parse("<root a=\"1\"><child>text</child></root>");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().name(), "root");
  int a = 0;
  AttrReader attrs(result.value());
  attrs.num("a", a);
  EXPECT_TRUE(attrs.ok());
  EXPECT_EQ(a, 1);
  ASSERT_NE(result.value().child("child"), nullptr);
  EXPECT_EQ(result.value().child("child")->text(), "text");
}

TEST(XmlParse, SelfClosingAndSingleQuotes) {
  auto result = parse("<r><leaf k='v'/></r>");
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result.value().child("leaf"), nullptr);
  EXPECT_EQ(*result.value().child("leaf")->attr("k"), "v");
}

TEST(XmlParse, SkipsPrologAndComments) {
  auto result = parse("<?xml version=\"1.0\"?>\n<!-- hi -->\n<r><!-- inner -->ok</r>\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().text(), "ok");
}

TEST(XmlParse, DecodesEntitiesInTextAndAttributes) {
  auto result = parse("<r k=\"&lt;&amp;&gt;\">&quot;x&apos;</r>");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result.value().attr("k"), "<&>");
  EXPECT_EQ(result.value().text(), "\"x'");
}

TEST(XmlParse, RejectsMismatchedCloseTag) {
  auto result = parse("<a><b></a></b>");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("mismatched"), std::string::npos);
}

TEST(XmlParse, RejectsUnterminatedDocument) {
  EXPECT_FALSE(parse("<a><b>").ok());
  EXPECT_FALSE(parse("<a attr=\"x").ok());
}

TEST(XmlParse, RejectsTrailingContent) {
  EXPECT_FALSE(parse("<a/><b/>").ok());
}

TEST(XmlParse, RejectsUnknownEntity) {
  EXPECT_FALSE(parse("<a>&bogus;</a>").ok());
}

TEST(XmlParse, ErrorsCarryLinePosition) {
  auto result = parse("<a>\n<b>\n</c>\n</a>");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("line 3"), std::string::npos);
}

// The error a document fails to parse with, or "parsed".
std::string parse_error(std::string_view document) {
  auto result = parse(document);
  return result.ok() ? std::string("parsed") : result.error().message;
}

// The parser's error texts, position included, are part of its contract:
// decoders prefix them to their own errors and the fleet collector keeps the
// first one.
TEST(XmlParse, ErrorTextsArePinned) {
  EXPECT_EQ(parse_error("<a attr=\"x"), "line 1:11: unterminated attribute value");
  EXPECT_EQ(parse_error("<a>\n  <b k='1'>&bogus;</b>\n</a>"), "line 2:19: unknown entity &bogus;");
  EXPECT_EQ(parse_error("<a>\n<b>\n</c>\n</a>"), "line 3:4: mismatched close tag </c> for <b>");
  EXPECT_EQ(parse_error("<a>\n  <b/>\n  text"), "line 3:7: unterminated element <a>");
}

TEST(XmlParse, BytesAbove0x7fAreNotNameCharacters) {
  EXPECT_EQ(parse_error("<\xc3\xa9/>"), "line 1:2: expected element name");
  EXPECT_EQ(parse_error("<a\xc3\xa9/>"), "line 1:3: expected attribute name");
  EXPECT_EQ(parse_error("<a b\xc3\xa9=\"1\"/>"), "line 1:6: expected '=' after attribute name");
}

TEST(XmlParse, VerticalTabAndFormFeedAreWhitespace) {
  auto tag = parse("<a\v\fb=\"1\"\v/>");
  ASSERT_TRUE(tag.ok()) << tag.error().message;
  ASSERT_NE(tag.value().attr("b"), nullptr);
  EXPECT_EQ(*tag.value().attr("b"), "1");
  auto text = parse("<a>\v\f x \f\v</a>");
  ASSERT_TRUE(text.ok()) << text.error().message;
  EXPECT_EQ(text.value().text(), "x");  // trimmed like spaces
}

TEST(XmlParse, EntitiesAtRunBoundaries) {
  // An entity opening or closing a value, entities back to back, and text
  // split by a child element around entities.
  auto first = parse("<a k=\"&amp;\">&lt;</a>");
  ASSERT_TRUE(first.ok()) << first.error().message;
  EXPECT_EQ(*first.value().attr("k"), "&");
  EXPECT_EQ(first.value().text(), "<");
  auto mixed = parse("<a k=\"x&amp;&quot;\">&lt;y&gt;<b/>&amp;</a>");
  ASSERT_TRUE(mixed.ok()) << mixed.error().message;
  EXPECT_EQ(*mixed.value().attr("k"), "x&\"");
  EXPECT_EQ(mixed.value().text(), "<y>&");
  ASSERT_NE(mixed.value().child("b"), nullptr);
  auto single = parse("<a k='&apos;'>&amp;&amp;</a>");
  ASSERT_TRUE(single.ok()) << single.error().message;
  EXPECT_EQ(*single.value().attr("k"), "'");
  EXPECT_EQ(single.value().text(), "&&");
}

TEST(XmlRoundTrip, SerializedTreeParsesBackIdentically) {
  Node root("campaign");
  root.set_attr("library", "libsimc.so.1");
  root.set_attr("note", "a<b & c>\"d\"");
  Node& spec = root.add_child("robust-spec");
  spec.set_attr("function", "strcpy");
  spec.add_text_child("prototype", "char *strcpy(char *dest, const char *src);");
  spec.add_child("arg").set_attr("index", "1");

  const std::string doc = serialize(root);
  auto reparsed = parse(doc);
  ASSERT_TRUE(reparsed.ok());
  // Round trip is byte-stable at the second generation.
  EXPECT_EQ(serialize(reparsed.value()), doc);
  EXPECT_EQ(*reparsed.value().attr("note"), "a<b & c>\"d\"");
}

TEST(XmlRoundTrip, DeepNesting) {
  Node root("l0");
  Node* cur = &root;
  for (int i = 1; i < 20; ++i) cur = &cur->add_child(std::string("l").append(std::to_string(i)));
  cur->set_text("bottom");
  auto reparsed = parse(serialize(root));
  ASSERT_TRUE(reparsed.ok());
  const Node* walk = &reparsed.value();
  for (int i = 1; i < 20; ++i) {
    walk = walk->child(std::string("l").append(std::to_string(i)));
    ASSERT_NE(walk, nullptr) << "level " << i;
  }
  EXPECT_EQ(walk->text(), "bottom");
}

TEST(XmlResult, BadAccessThrows) {
  Result<Node> bad = Error("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_THROW((void)bad.value(), BadResultAccess);
  Result<Node> good = Node("n");
  EXPECT_THROW((void)good.error(), BadResultAccess);
}

}  // namespace
}  // namespace healers::xml
