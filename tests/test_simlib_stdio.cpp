// Behaviour tests for the stdio subset: stream lifecycle over the in-memory
// filesystem, errno discipline, the FILE-object fragility (garbage/stale
// pointers crash), and the printf engine.
#include <gtest/gtest.h>

#include "testbed.hpp"

namespace healers {
namespace {

using testbed::I;
using testbed::P;

struct StdioFixture : ::testing::Test {
  std::unique_ptr<linker::Process> proc = testbed::make_process();
  mem::AddressSpace& mem() { return proc->machine().mem(); }
  mem::Addr str(const std::string& text) { return proc->alloc_cstring(text); }
  mem::Addr buf(std::uint64_t size) { return proc->scratch(size); }

  simlib::SimValue open(const std::string& path, const std::string& mode) {
    return proc->call("fopen", {P(str(path)), P(str(mode))});
  }
};

TEST_F(StdioFixture, FopenMissingFileReadSetsEnoent) {
  EXPECT_EQ(open("/nope", "r").as_ptr(), 0u);
  EXPECT_EQ(proc->machine().err(), simlib::kENOENT);
}

TEST_F(StdioFixture, FopenWriteCreatesFile) {
  const auto f = open("/new.txt", "w");
  ASSERT_NE(f.as_ptr(), 0u);
  EXPECT_TRUE(proc->state().fs.exists("/new.txt"));
  proc->call("fclose", {f});
}

TEST_F(StdioFixture, FopenBadModeSetsEinval) {
  EXPECT_EQ(open("/x", "q").as_ptr(), 0u);
  EXPECT_EQ(proc->machine().err(), simlib::kEINVAL);
}

TEST_F(StdioFixture, FopenTruncatesOnW) {
  proc->state().fs.put("/t", "old contents");
  const auto f = open("/t", "w");
  ASSERT_NE(f.as_ptr(), 0u);
  EXPECT_EQ(*proc->state().fs.contents("/t"), "");
  proc->call("fclose", {f});
}

TEST_F(StdioFixture, AppendModePositionsAtEnd) {
  proc->state().fs.put("/a", "12345");
  const auto f = open("/a", "a");
  proc->call("fputs", {P(str("67")), f});
  EXPECT_EQ(*proc->state().fs.contents("/a"), "1234567");
  proc->call("fclose", {f});
}

TEST_F(StdioFixture, WriteReadRoundTrip) {
  const auto out = open("/data", "w");
  proc->call("fwrite", {P(str("hello world")), I(1), I(11), out});
  proc->call("fclose", {out});

  const auto in = open("/data", "r");
  const mem::Addr dst = buf(32);
  EXPECT_EQ(proc->call("fread", {P(dst), I(1), I(11), in}).as_int(), 11);
  EXPECT_EQ(mem().read_bytes(dst, 5), mem().read_bytes(str("hello"), 5));
  proc->call("fclose", {in});
}

TEST_F(StdioFixture, FreadPartialRecordsStopShort) {
  proc->state().fs.put("/r", "123456789");  // 9 bytes
  const auto f = open("/r", "r");
  const mem::Addr dst = buf(32);
  EXPECT_EQ(proc->call("fread", {P(dst), I(4), I(3), f}).as_int(), 2);  // 2 full records
  EXPECT_EQ(proc->call("feof", {f}).as_int(), 1);
  proc->call("fclose", {f});
}

TEST_F(StdioFixture, FgetsReadsLinewise) {
  proc->state().fs.put("/lines", "one\ntwo\n");
  const auto f = open("/lines", "r");
  const mem::Addr line = buf(32);
  ASSERT_NE(proc->call("fgets", {P(line), I(32), f}).as_ptr(), 0u);
  EXPECT_EQ(mem().read_cstring(line), "one\n");
  ASSERT_NE(proc->call("fgets", {P(line), I(32), f}).as_ptr(), 0u);
  EXPECT_EQ(mem().read_cstring(line), "two\n");
  EXPECT_EQ(proc->call("fgets", {P(line), I(32), f}).as_ptr(), 0u);  // EOF
  proc->call("fclose", {f});
}

TEST_F(StdioFixture, FgetsBoundsAtNMinusOne) {
  proc->state().fs.put("/big", "abcdefghij");
  const auto f = open("/big", "r");
  const mem::Addr line = buf(8);
  proc->call("fgets", {P(line), I(5), f});
  EXPECT_EQ(mem().read_cstring(line), "abcd");
  proc->call("fclose", {f});
}

TEST_F(StdioFixture, FgetcFputcAndFeof) {
  const auto out = open("/c", "w");
  proc->call("fputc", {I('Z'), out});
  proc->call("fclose", {out});
  const auto in = open("/c", "r");
  EXPECT_EQ(proc->call("fgetc", {in}).as_int(), 'Z');
  EXPECT_EQ(proc->call("fgetc", {in}).as_int(), -1);
  EXPECT_EQ(proc->call("feof", {in}).as_int(), 1);
  proc->call("fclose", {in});
}

TEST_F(StdioFixture, FtellAndRewind) {
  proc->state().fs.put("/pos", "abcdef");
  const auto f = open("/pos", "r");
  proc->call("fgetc", {f});
  proc->call("fgetc", {f});
  EXPECT_EQ(proc->call("ftell", {f}).as_int(), 2);
  proc->call("rewind", {f});
  EXPECT_EQ(proc->call("ftell", {f}).as_int(), 0);
  EXPECT_EQ(proc->call("fgetc", {f}).as_int(), 'a');
  proc->call("fclose", {f});
}

TEST_F(StdioFixture, ReadOnWriteOnlyStreamSetsEbadf) {
  const auto f = open("/wo", "w");
  const mem::Addr dst = buf(8);
  proc->machine().set_err(0);
  EXPECT_EQ(proc->call("fread", {P(dst), I(1), I(1), f}).as_int(), 0);
  EXPECT_EQ(proc->machine().err(), simlib::kEBADF);
  proc->call("fclose", {f});
}

TEST_F(StdioFixture, WriteOnReadOnlyStreamSetsEbadf) {
  proc->state().fs.put("/ro", "x");
  const auto f = open("/ro", "r");
  proc->machine().set_err(0);
  EXPECT_EQ(proc->call("fputs", {P(str("y")), f}).as_int(), -1);
  EXPECT_EQ(proc->machine().err(), simlib::kEBADF);
  proc->call("fclose", {f});
}

TEST_F(StdioFixture, GarbageFilePointerCrashes) {
  const mem::Addr garbage = buf(32);  // mapped but not a FILE
  EXPECT_THROW(proc->call("fclose", {P(garbage)}), AccessFault);
  EXPECT_THROW(proc->call("fgetc", {P(garbage)}), AccessFault);
  EXPECT_THROW(proc->call("fgetc", {P(mem::AddressSpace::wild_pointer())}), AccessFault);
  EXPECT_THROW(proc->call("fclose", {P(0)}), AccessFault);
}

TEST_F(StdioFixture, UseAfterFcloseCrashes) {
  const auto f = open("/uaf", "w");
  proc->call("fclose", {f});
  EXPECT_THROW(proc->call("fputc", {I('x'), f}), AccessFault);
}

TEST_F(StdioFixture, OpenFileSlotReuseAfterClose) {
  const auto f1 = open("/s1", "w");
  proc->call("fclose", {f1});
  const auto f2 = open("/s2", "w");
  ASSERT_NE(f2.as_ptr(), 0u);
  EXPECT_NO_THROW(proc->call("fputc", {I('x'), f2}));
  proc->call("fclose", {f2});
}

TEST_F(StdioFixture, TooManyOpenFilesSetsEmfile) {
  std::vector<simlib::SimValue> files;
  for (std::size_t i = 0; i < simlib::kMaxOpenFiles; ++i) {
    const auto f = open("/many" + std::to_string(i), "w");
    ASSERT_NE(f.as_ptr(), 0u) << i;
    files.push_back(f);
  }
  proc->machine().set_err(0);
  EXPECT_EQ(open("/one-more", "w").as_ptr(), 0u);
  EXPECT_EQ(proc->machine().err(), simlib::kEMFILE);
}

TEST_F(StdioFixture, RemoveDeletesAndReportsMissing) {
  proc->state().fs.put("/del", "x");
  EXPECT_EQ(proc->call("remove", {P(str("/del"))}).as_int(), 0);
  EXPECT_FALSE(proc->state().fs.exists("/del"));
  proc->machine().set_err(0);
  EXPECT_EQ(proc->call("remove", {P(str("/del"))}).as_int(), -1);
  EXPECT_EQ(proc->machine().err(), simlib::kENOENT);
}

TEST_F(StdioFixture, SprintfFormatsConversions) {
  const mem::Addr dst = buf(128);
  proc->call("sprintf", {P(dst), P(str("%s=%d 0x%x %c %u%%")), P(str("n")), I(-5), I(255),
                         I('Z'), I(7)});
  EXPECT_EQ(mem().read_cstring(dst), "n=-5 0xff Z 7%");
}

TEST_F(StdioFixture, SprintfWidthAndZeroPad) {
  const mem::Addr dst = buf(64);
  proc->call("sprintf", {P(dst), P(str("[%5d][%04d]")), I(42), I(7)});
  EXPECT_EQ(mem().read_cstring(dst), "[   42][0007]");
}

TEST_F(StdioFixture, SprintfZeroPadsAfterTheSign) {
  const mem::Addr dst = buf(64);
  proc->call("sprintf", {P(dst), P(str("[%05d][%5d][%03d]")), I(-42), I(-42), I(-7)});
  EXPECT_EQ(mem().read_cstring(dst), "[-0042][  -42][-07]");
}

TEST_F(StdioFixture, WidthAboveIntMaxFailsWithEoverflowBeforeWriting) {
  const mem::Addr dst = buf(16);
  mem().store8(dst, '#');
  EXPECT_EQ(proc->call("sprintf", {P(dst), P(str("[%2147483648d]")), I(7)}).as_int(), -1);
  EXPECT_EQ(proc->machine().err(), simlib::kEOVERFLOW);
  EXPECT_EQ(mem().load8(dst), '#');
  proc->machine().set_err(0);
  EXPECT_EQ(proc->call("snprintf", {P(dst), I(16), P(str("%099999999999d")), I(7)}).as_int(), -1);
  EXPECT_EQ(proc->machine().err(), simlib::kEOVERFLOW);
  EXPECT_EQ(mem().load8(dst), '#');
  proc->machine().set_err(0);
  EXPECT_EQ(proc->call("printf", {P(str("ok %d %2147483648ld")), I(1), I(2)}).as_int(), -1);
  EXPECT_EQ(proc->machine().err(), simlib::kEOVERFLOW);
  EXPECT_EQ(proc->state().stdout_capture, "");
  // A width that fits pads as before.
  proc->machine().set_err(0);
  EXPECT_EQ(proc->call("sprintf", {P(dst), P(str("[%3d]")), I(7)}).as_int(), 5);
  EXPECT_EQ(mem().read_cstring(dst), "[  7]");
  EXPECT_EQ(proc->machine().err(), 0);
}

TEST_F(StdioFixture, SprintfOverflowsUnboundedly) {
  const mem::Addr small = buf(4);
  EXPECT_THROW(
      proc->call("sprintf", {P(small), P(str("%s")), P(str("much too long for four bytes"))}),
      AccessFault);
}

TEST_F(StdioFixture, SprintfNullStringArgCrashes) {
  const mem::Addr dst = buf(64);
  EXPECT_THROW(proc->call("sprintf", {P(dst), P(str("%s")), P(0)}), AccessFault);
}

TEST_F(StdioFixture, SnprintfBoundsAndReportsFullLength) {
  const mem::Addr dst = buf(8);
  const auto n = proc->call("snprintf", {P(dst), I(8), P(str("%s")), P(str("0123456789"))});
  EXPECT_EQ(n.as_int(), 10);  // would-be length
  EXPECT_EQ(mem().read_cstring(dst), "0123456");
}

TEST_F(StdioFixture, FprintfWritesToStream) {
  const auto f = open("/log", "w");
  proc->call("fprintf", {f, P(str("value=%d\n")), I(99)});
  proc->call("fclose", {f});
  EXPECT_EQ(*proc->state().fs.contents("/log"), "value=99\n");
}

TEST_F(StdioFixture, PutsAndPrintfCaptureStdout) {
  proc->call("puts", {P(str("hello"))});
  proc->call("printf", {P(str("%d-%s")), I(3), P(str("x"))});
  EXPECT_EQ(proc->state().stdout_capture, "hello\n3-x");
}

TEST_F(StdioFixture, FflushNullAndStreamOk) {
  EXPECT_EQ(proc->call("fflush", {P(0)}).as_int(), 0);
  const auto f = open("/ff", "w");
  EXPECT_EQ(proc->call("fflush", {f}).as_int(), 0);
  proc->call("fclose", {f});
}

}  // namespace
}  // namespace healers
