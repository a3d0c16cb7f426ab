// Unit tests for the XML infrastructure: node operations, escaping,
// serialization shape, the strict pull reader and its attribute reader, and
// serialize/read round trips.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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

// The error a document fails to read with (the reader walking nothing but
// the root's start tag), or "parsed".
std::string parse_error(std::string_view document) {
  Reader in(document);
  const Status status = in.finish(Status::success());
  return status.ok() ? std::string("parsed") : status.error().message;
}

// The names of the root's children, in document order.
std::vector<std::string> child_names(std::string_view document) {
  Reader in(document);
  std::vector<std::string> names;
  in.children([&names](std::string_view name) { names.emplace_back(name); });
  EXPECT_TRUE(in.finish(Status::success()).ok()) << document;
  return names;
}

// The root's character data.
std::string root_text(std::string_view document) {
  Reader in(document);
  std::string text;
  in.text(text);
  const Status status = in.finish(Status::success());
  EXPECT_TRUE(status.ok()) << document << ": " << status.error().message;
  return text;
}

// The text of the root's first child named `name`.
std::string child_text(std::string_view document, std::string_view name) {
  Reader in(document);
  std::string text;
  in.children([&](std::string_view child) {
    if (child == name) in.text(text);
  });
  EXPECT_TRUE(in.finish(Status::success()).ok()) << document;
  return text;
}

TEST(XmlReader, AttrLookupReturnsNullWhenMissing) {
  Reader in("<n k=\"v\"/>");
  EXPECT_EQ(in.attr("missing"), nullptr);
  ASSERT_NE(in.attr("k"), nullptr);
  EXPECT_EQ(*in.attr("k"), "v");
}

// A <n .../> document whose attributes are `attrs`, written as given.
std::string tag(std::string_view attrs) { return "<n " + std::string(attrs) + "/>"; }

TEST(XmlAttrReader, ReadsNumbersStrictly) {
  const std::string doc = tag("good=\"42\" neg=\"-7\" bad=\"4x2\"");
  Reader node(doc);
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
  const std::string doc =
      tag("byte=\"255\" past=\"256\" low=\"-128\" below=\"-129\" empty=\"\"");
  Reader node(doc);
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
  const std::string doc = tag("addr=\"0x1a2B\" on=\"1\" kind=\"beta\" note=\"\"");
  Reader node(doc);
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
    const std::string bad_doc = tag("addr=\"" + std::string(bad) + "\"");
    Reader bad_node(bad_doc);
    AttrReader hex(bad_node);
    hex.hex("addr", addr);
    EXPECT_FALSE(hex.ok()) << bad;
  }
  for (const std::string_view bad : {"2", "-1", "+1", "yes", ""}) {
    const std::string bad_doc = tag("on=\"" + std::string(bad) + "\"");
    Reader bad_node(bad_doc);
    AttrReader flag(bad_node);
    flag.flag("on", on);
    EXPECT_FALSE(flag.ok()) << bad;
  }
  for (const std::string_view bad : {"Beta", "bet", ""}) {
    const std::string bad_doc = tag("kind=\"" + std::string(bad) + "\"");
    Reader bad_node(bad_doc);
    AttrReader word(bad_node);
    word.word("kind", kind, kNames);
    EXPECT_FALSE(word.ok()) << bad;
  }
}

TEST(XmlAttrReader, KeepsTheFirstError) {
  const std::string doc = tag("a=\"x\" c=\"3\"");
  Reader node(doc);
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

TEST(XmlReader, VisitsChildrenInDocumentOrder) {
  Node node("root");
  node.add_child("a");
  node.add_child("b").add_child("a");  // a grandchild is not visited
  node.add_child("a");
  EXPECT_EQ(child_names(serialize(node)), (std::vector<std::string>{"a", "b", "a"}));
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

TEST(XmlReader, SimpleDocument) {
  const std::string_view doc = "<root a=\"1\"><child>text</child></root>";
  Reader in(doc);
  EXPECT_EQ(in.name(), "root");
  int a = 0;
  AttrReader attrs(in);
  attrs.num("a", a);
  EXPECT_TRUE(attrs.ok());
  EXPECT_EQ(a, 1);
  EXPECT_TRUE(in.finish(Status::success()).ok());
  EXPECT_EQ(child_names(doc), std::vector<std::string>{"child"});
  EXPECT_EQ(child_text(doc, "child"), "text");
}

TEST(XmlReader, SelfClosingAndSingleQuotes) {
  Reader in("<r><leaf k='v'/></r>");
  std::string value;
  in.children([&](std::string_view name) {
    ASSERT_EQ(name, "leaf");
    ASSERT_NE(in.attr("k"), nullptr);
    value = *in.attr("k");
  });
  EXPECT_TRUE(in.finish(Status::success()).ok());
  EXPECT_EQ(value, "v");
}

TEST(XmlReader, SkipsPrologAndComments) {
  EXPECT_EQ(root_text("<?xml version=\"1.0\"?>\n<!-- hi -->\n<r><!-- inner -->ok</r>\n"), "ok");
}

TEST(XmlReader, DecodesEntitiesInTextAndAttributes) {
  const std::string_view doc = "<r k=\"&lt;&amp;&gt;\">&quot;x&apos;</r>";
  Reader in(doc);
  ASSERT_NE(in.attr("k"), nullptr);
  EXPECT_EQ(*in.attr("k"), "<&>");
  EXPECT_EQ(root_text(doc), "\"x'");
}

TEST(XmlReader, RejectsMismatchedCloseTag) {
  EXPECT_NE(parse_error("<a><b></a></b>").find("mismatched"), std::string::npos);
}

TEST(XmlReader, RejectsUnterminatedDocument) {
  EXPECT_NE(parse_error("<a><b>"), "parsed");
  EXPECT_NE(parse_error("<a attr=\"x"), "parsed");
}

TEST(XmlReader, RejectsTrailingContent) {
  EXPECT_NE(parse_error("<a/><b/>"), "parsed");
}

TEST(XmlReader, RejectsUnknownEntity) {
  EXPECT_NE(parse_error("<a>&bogus;</a>"), "parsed");
}

TEST(XmlReader, ErrorsCarryLinePosition) {
  EXPECT_NE(parse_error("<a>\n<b>\n</c>\n</a>").find("line 3"), std::string::npos);
}

// The reader's error texts, position included, are part of its contract:
// decoders prefix them to their own errors and the fleet collector keeps the
// first one.
TEST(XmlReader, ErrorTextsArePinned) {
  EXPECT_EQ(parse_error("<a attr=\"x"), "line 1:11: unterminated attribute value");
  EXPECT_EQ(parse_error("<a>\n  <b k='1'>&bogus;</b>\n</a>"), "line 2:19: unknown entity &bogus;");
  EXPECT_EQ(parse_error("<a>\n<b>\n</c>\n</a>"), "line 3:4: mismatched close tag </c> for <b>");
  EXPECT_EQ(parse_error("<a>\n  <b/>\n  text"), "line 3:7: unterminated element <a>");
  // XML 1.0 3.1, Unique Att Spec: the position is the repeated name's.
  EXPECT_EQ(parse_error("<a>\n  <b k=\"1\" j='2' k=\"3\"/>\n</a>"),
            "line 2:18: duplicate attribute name");
  EXPECT_EQ(parse_error("<function name=\"a\" name=\"b\"/>"),
            "line 1:20: duplicate attribute name");
  EXPECT_EQ(parse_error("<a k='1' k='1'/>"), "line 1:10: duplicate attribute name");
  EXPECT_EQ(parse_error("<a k='1' kk='1'/>"), "parsed");
}

TEST(XmlReader, BytesAbove0x7fAreNotNameCharacters) {
  EXPECT_EQ(parse_error("<\xc3\xa9/>"), "line 1:2: expected element name");
  EXPECT_EQ(parse_error("<a\xc3\xa9/>"), "line 1:3: expected attribute name");
  EXPECT_EQ(parse_error("<a b\xc3\xa9=\"1\"/>"), "line 1:6: expected '=' after attribute name");
}

TEST(XmlReader, VerticalTabAndFormFeedAreWhitespace) {
  Reader tag_in("<a\v\fb=\"1\"\v/>");
  ASSERT_TRUE(tag_in.ok()) << tag_in.finish(Status::success()).error().message;
  ASSERT_NE(tag_in.attr("b"), nullptr);
  EXPECT_EQ(*tag_in.attr("b"), "1");
  EXPECT_EQ(root_text("<a>\v\f x \f\v</a>"), "x");  // trimmed like spaces
}

TEST(XmlReader, EntitiesAtRunBoundaries) {
  // An entity opening or closing a value, entities back to back, and text
  // split by a child element around entities.
  Reader first("<a k=\"&amp;\">&lt;</a>");
  ASSERT_NE(first.attr("k"), nullptr);
  EXPECT_EQ(*first.attr("k"), "&");
  EXPECT_EQ(root_text("<a k=\"&amp;\">&lt;</a>"), "<");
  const std::string_view mixed_doc = "<a k=\"x&amp;&quot;\">&lt;y&gt;<b/>&amp;</a>";
  Reader mixed(mixed_doc);
  ASSERT_NE(mixed.attr("k"), nullptr);
  EXPECT_EQ(*mixed.attr("k"), "x&\"");
  EXPECT_EQ(root_text(mixed_doc), "<y>&");
  EXPECT_EQ(child_names(mixed_doc), std::vector<std::string>{"b"});
  Reader single("<a k='&apos;'>&amp;&amp;</a>");
  ASSERT_NE(single.attr("k"), nullptr);
  EXPECT_EQ(*single.attr("k"), "'");
  EXPECT_EQ(root_text("<a k='&apos;'>&amp;&amp;</a>"), "&&");
}

// Entity-decoded values of one start tag stay valid while later ones are
// decoded.
TEST(XmlReader, DecodedValuesOfOneTagStayValid) {
  std::string doc = "<a";
  for (int i = 0; i < 40; ++i) {
    doc += " k" + std::to_string(i) + "=\"&lt;" + std::string(i, 'v') + "\"";
  }
  doc += "/>";
  Reader in(doc);
  for (int i = 0; i < 40; ++i) {
    const std::string_view* value = in.attr("k" + std::to_string(i));
    ASSERT_NE(value, nullptr) << i;
    EXPECT_EQ(*value, "<" + std::string(i, 'v')) << i;
  }
}

// The reader loops instead of recursing: a megabyte of nested elements is a
// positional error at the first element past kMaxDepth, not a stack overflow.
TEST(XmlReader, RefusesNestingDeeperThanTheBound) {
  std::string deep;
  while (deep.size() < (1u << 20)) deep += "<a>";
  const std::string column = std::to_string(3 * kMaxDepth + 1);
  EXPECT_EQ(parse_error(deep), "line 1:" + column + ": elements nested deeper than 64");
  std::string bounded;
  for (std::size_t i = 0; i < kMaxDepth; ++i) bounded += "<a>";
  for (std::size_t i = 0; i < kMaxDepth; ++i) bounded += "</a>";
  EXPECT_EQ(parse_error(bounded), "parsed");
}

// A reader reset to another document reads it as a fresh reader does,
// whatever the last document left open or failed on.
TEST(XmlReader, ResetReadsTheNextDocumentAsAFreshReaderDoes) {
  Reader in;
  EXPECT_EQ(in.finish(Status::success()).error().message, "no document");
  for (const std::string_view doc :
       {"<a><b>", "<r k=\"&lt;\"><c/>x</r>", "<a/><b/>", "<a>\n<b>\n</c>\n</a>", "<r k='v'/>"}) {
    in.reset(doc);
    const Status status = in.finish(Status::success());
    EXPECT_EQ(status.ok() ? std::string("parsed") : status.error().message, parse_error(doc))
        << doc;
  }
  in.reset("<r k=\"&lt;\"><c/>x</r>");
  EXPECT_EQ(in.name(), "r");
  ASSERT_NE(in.attr("k"), nullptr);
  EXPECT_EQ(*in.attr("k"), "<");
  std::string text;
  in.text(text);
  EXPECT_EQ(text, "x");
  EXPECT_TRUE(in.finish(Status::success()).ok());
}

// A decoder's semantic error never outranks a syntax error later in the
// document.
TEST(XmlReader, SyntaxErrorsOutrankTheDecodersVerdict) {
  Reader in("<a><b/></a>\n<c/>");
  EXPECT_EQ(in.finish(Error("semantic")).error().message,
            "line 2:1: trailing content after document element");
  Reader good("<a><b/></a>");
  EXPECT_EQ(good.finish(Error("semantic")).error().message, "semantic");
  Reader prefixed("<a>");
  EXPECT_EQ(prefixed.finish(Status::success(), "xml document: ").error().message,
            "xml document: line 1:4: unterminated element <a>");
}

TEST(XmlFirstError, KeepsTheFirstErrorOfTheEarliestSection) {
  FirstError first;
  EXPECT_TRUE(first.wants(1));
  first.keep(1, Error("late section"));
  first.keep(1, Error("late section, second"));
  EXPECT_FALSE(first.wants(1));
  EXPECT_TRUE(first.wants(0));
  first.keep(2, Error("later section"));
  EXPECT_EQ(first.status().error().message, "late section");
  first.keep(0, Status::success());
  first.keep(0, Error("early section"));
  EXPECT_EQ(first.status().error().message, "early section");
}

TEST(XmlRoundTrip, SerializedTreeReadsBackIdentically) {
  Node root("campaign");
  root.set_attr("library", "libsimc.so.1");
  root.set_attr("note", "a<b & c>\"d\"");
  Node& spec = root.add_child("robust-spec");
  spec.set_attr("function", "strcpy");
  spec.add_text_child("prototype", "char *strcpy(char *dest, const char *src);");
  spec.add_child("arg").set_attr("index", "1");

  const std::string doc = serialize(root);
  Reader in(doc);
  ASSERT_EQ(in.name(), "campaign");
  Node back("campaign");
  back.set_attr("library", std::string(*in.attr("library")));
  back.set_attr("note", std::string(*in.attr("note")));
  in.children([&](std::string_view name) {
    Node& child = back.add_child(std::string(name));
    child.set_attr("function", std::string(*in.attr("function")));
    in.children([&](std::string_view grandchild) {
      if (grandchild == "prototype") {
        std::string text;
        in.text(text);
        child.add_text_child("prototype", std::move(text));
      } else {
        child.add_child(std::string(grandchild)).set_attr("index", std::string(*in.attr("index")));
      }
    });
  });
  EXPECT_TRUE(in.finish(Status::success()).ok());
  // Round trip is byte-stable at the second generation.
  EXPECT_EQ(serialize(back), doc);
  EXPECT_EQ(back.attrs()[1].second, "a<b & c>\"d\"");
}

// The text at the bottom of a chain of single children, `levels` deep.
std::string bottom_text(Reader& in, int levels) {
  std::string text;
  if (levels == 0) {
    in.text(text);
    return text;
  }
  in.children([&](std::string_view name) {
    EXPECT_EQ(name, "l" + std::to_string(20 - levels));
    text = bottom_text(in, levels - 1);
  });
  return text;
}

TEST(XmlRoundTrip, DeepNesting) {
  Node root("l0");
  Node* cur = &root;
  for (int i = 1; i < 20; ++i) cur = &cur->add_child(std::string("l").append(std::to_string(i)));
  cur->set_text("bottom");
  const std::string doc = serialize(root);
  Reader in(doc);
  EXPECT_EQ(bottom_text(in, 19), "bottom");
  EXPECT_TRUE(in.finish(Status::success()).ok());
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
