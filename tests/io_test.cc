#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/rng.h"
#include "common/str_util.h"
#include "provenance/exec.h"
#include "provenance/optimizer.h"
#include "provenance/plan.h"
#include "provenance/provio.h"
#include "provenance/recovery.h"
#include "provenance/snapshot.h"
#include "provenance/wal.h"
#include "relational/csv.h"
#include "test_util.h"
#include "workflow/executor.h"
#include "workflow/wfdsl.h"
#include "workflowgen/dealership.h"

namespace lipstick {
namespace {

using ::lipstick::testing::I;
using ::lipstick::testing::MakeSchema;
using ::lipstick::testing::S;
using ::lipstick::testing::T;

SchemaPtr CarSchema() {
  return MakeSchema({{"CarId", FieldType::Int()},
                     {"Model", FieldType::String()},
                     {"Price", FieldType::Double()},
                     {"Sold", FieldType::Bool()}});
}

TEST(CsvTest, ReadTypedRows) {
  std::istringstream in(
      "CarId,Model,Price,Sold\n"
      "1,Golf,19999.5,false\n"
      "2,Jetta,23000,1\n");
  Result<Bag> bag = ReadCsv(in, *CarSchema());
  LIPSTICK_ASSERT_OK(bag.status());
  ASSERT_EQ(bag->size(), 2u);
  EXPECT_EQ(bag->at(0).tuple.at(0).int_value(), 1);
  EXPECT_EQ(bag->at(0).tuple.at(1).string_value(), "Golf");
  EXPECT_DOUBLE_EQ(bag->at(0).tuple.at(2).double_value(), 19999.5);
  EXPECT_FALSE(bag->at(0).tuple.at(3).bool_value());
  EXPECT_TRUE(bag->at(1).tuple.at(3).bool_value());
}

TEST(CsvTest, QuotingRoundTrip) {
  Relation rel("R",
               MakeSchema({{"a", FieldType::String()},
                           {"b", FieldType::String()}}));
  rel.bag.Add(T({S("with,comma"), S("with \"quotes\"")}));
  rel.bag.Add(T({S("line\nbreak"), S("plain")}));
  std::ostringstream out;
  LIPSTICK_ASSERT_OK(WriteCsv(out, rel));
  std::istringstream in(out.str());
  Result<Bag> bag = ReadCsv(in, *rel.schema);
  LIPSTICK_ASSERT_OK(bag.status());
  EXPECT_TRUE(bag->ContentEquals(rel.bag));
}

TEST(CsvTest, NullHandling) {
  CsvOptions options;
  options.null_text = "NULL";
  std::istringstream in("a\nNULL\n3\n");
  Result<Bag> bag =
      ReadCsv(in, *MakeSchema({{"a", FieldType::Int()}}), options);
  LIPSTICK_ASSERT_OK(bag.status());
  EXPECT_TRUE(bag->at(0).tuple.at(0).is_null());
  EXPECT_EQ(bag->at(1).tuple.at(0).int_value(), 3);
}

TEST(CsvTest, Errors) {
  // Wrong header.
  std::istringstream bad_header("x,y\n1,2\n");
  EXPECT_FALSE(ReadCsv(bad_header, *MakeSchema({{"a", FieldType::Int()},
                                                {"b", FieldType::Int()}}))
                   .ok());
  // Wrong column count.
  std::istringstream bad_cols("a\n1,2\n");
  EXPECT_FALSE(ReadCsv(bad_cols, *MakeSchema({{"a", FieldType::Int()}})).ok());
  // Type error with location.
  std::istringstream bad_type("a\nxyz\n");
  Status st =
      ReadCsv(bad_type, *MakeSchema({{"a", FieldType::Int()}})).status();
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("row 2"), std::string::npos);
  // Nested schema rejected.
  SchemaPtr nested = MakeSchema(
      {{"bag", FieldType::Bag(MakeSchema({{"x", FieldType::Int()}}))}});
  std::istringstream any("bag\n{}\n");
  EXPECT_FALSE(ReadCsv(any, *nested).ok());
}

TEST(CsvTest, CustomDelimiterAndNoHeader) {
  CsvOptions options;
  options.delimiter = '\t';
  options.header = false;
  std::istringstream in("1\tGolf\n2\tJetta\n");
  Result<Bag> bag = ReadCsv(
      in, *MakeSchema({{"id", FieldType::Int()},
                       {"m", FieldType::String()}}),
      options);
  LIPSTICK_ASSERT_OK(bag.status());
  EXPECT_EQ(bag->size(), 2u);
}

constexpr char kDslSource[] = R"WF(
-- two-module workflow used across the DSL tests
module source {
  input Ext(x: int);
  output Out(x: int);
  qout {
    Out = FOREACH Ext GENERATE x;
  }
}

module doubler {
  input In(x: int);
  output Out(y: double);
  qout {
    Out = FOREACH In GENERATE x * 2.0 AS y;
  }
}

node in = source;
node d1 = doubler;
node d2 = doubler as d1_shared;
edge in -> d1 : Out -> In;
edge in -> d2 : Out -> In;
)WF";

TEST(WfDslTest, ParsesModulesNodesEdges) {
  Result<Workflow> wf = ParseWorkflow(kDslSource);
  LIPSTICK_ASSERT_OK(wf.status());
  EXPECT_EQ(wf->nodes().size(), 3u);
  EXPECT_EQ(wf->edges().size(), 2u);
  LIPSTICK_EXPECT_OK(wf->Validate(nullptr));
  // Instance binding via `as`.
  EXPECT_EQ(wf->FindNode("d2").value()->instance, "d1_shared");
  EXPECT_EQ(wf->FindNode("d1").value()->instance, "d1");
  // Module schemas parsed with types.
  const ModuleSpec* doubler = wf->FindModule("doubler").value();
  EXPECT_EQ(doubler->output_schemas.at("Out")->field(0).type.kind(),
            FieldType::Kind::kDouble);
}

TEST(WfDslTest, ParsedWorkflowExecutes) {
  Result<Workflow> wf = ParseWorkflow(kDslSource);
  LIPSTICK_ASSERT_OK(wf.status());
  WorkflowExecutor exec(&*wf, nullptr);
  LIPSTICK_ASSERT_OK(exec.Initialize());
  WorkflowInputs inputs;
  Bag ext;
  ext.Add(T({I(21)}));
  inputs["in"]["Ext"] = std::move(ext);
  auto outputs = exec.Execute(inputs, nullptr);
  LIPSTICK_ASSERT_OK(outputs.status());
  EXPECT_DOUBLE_EQ(
      outputs->at("d1").at("Out").bag.at(0).tuple.at(0).double_value(), 42.0);
}

TEST(WfDslTest, RoundTripThroughDsl) {
  Result<Workflow> wf = ParseWorkflow(kDslSource);
  LIPSTICK_ASSERT_OK(wf.status());
  std::string dsl = WorkflowToDsl(*wf);
  Result<Workflow> again = ParseWorkflow(dsl);
  LIPSTICK_ASSERT_OK(again.status());
  EXPECT_EQ(again->nodes().size(), wf->nodes().size());
  EXPECT_EQ(again->edges().size(), wf->edges().size());
  LIPSTICK_EXPECT_OK(again->Validate(nullptr));
  // Printing the reparsed workflow reproduces the same DSL (fixpoint).
  EXPECT_EQ(WorkflowToDsl(*again), dsl);
}

TEST(WfDslTest, StateAndQstate) {
  const char* source = R"WF(
module acc {
  input In(x: int);
  state Seen(x: int);
  output Total(t: int);
  qstate { Seen = UNION Seen, In; }
  qout {
    G = GROUP Seen ALL;
    Total = FOREACH G GENERATE SUM(Seen.x) AS t;
  }
}
node a = acc;
)WF";
  Result<Workflow> wf = ParseWorkflow(source);
  LIPSTICK_ASSERT_OK(wf.status());
  LIPSTICK_EXPECT_OK(wf->Validate(nullptr));
  const ModuleSpec* acc = wf->FindModule("acc").value();
  EXPECT_EQ(acc->qstate.statements.size(), 1u);
  EXPECT_EQ(acc->state_schemas.size(), 1u);
}

TEST(WfDslTest, ErrorsCarryLineNumbers) {
  Result<Workflow> bad1 = ParseWorkflow("module m {\n  bogus Foo(x: int);\n}");
  EXPECT_EQ(bad1.status().code(), StatusCode::kParseError);
  EXPECT_NE(bad1.status().message().find("line 2"), std::string::npos);

  EXPECT_FALSE(ParseWorkflow("node a = ;").ok());
  EXPECT_FALSE(ParseWorkflow("edge a b : R;").ok());          // missing ->
  EXPECT_FALSE(ParseWorkflow("module m { input R(x: blob); }").ok());
  EXPECT_FALSE(ParseWorkflow("module m { qout { A = ").ok());  // open block
  // Pig parse errors surface through MakeModule.
  Result<Workflow> bad_pig =
      ParseWorkflow("module m { qout { A = FILTER; } }\nnode n = m;");
  EXPECT_EQ(bad_pig.status().code(), StatusCode::kParseError);
}

TEST(WfDslTest, FileNotFound) {
  EXPECT_EQ(ParseWorkflowFile("/no/such/file.wf").status().code(),
            StatusCode::kIOError);
}

/// ------------------- graph file loader robustness -----------------------
/// The loader must reject truncated, corrupted, or adversarial input with
/// a Status — never crash, hang, allocate beyond the input, or return a
/// graph with dangling references (the recovery path feeds it checkpoint
/// files that may have been cut short by a crash).

/// Builds a tracked provenance dump of about 30 KiB by running the DSL
/// workflow several times with provenance on.
std::string TrackedGraphDump() {
  Result<Workflow> wf = ParseWorkflow(kDslSource);
  EXPECT_TRUE(wf.ok()) << wf.status().ToString();
  WorkflowExecutor exec(&*wf, nullptr);
  EXPECT_TRUE(exec.Initialize().ok());
  ProvenanceGraph graph;
  for (int e = 0; e < 8; ++e) {
    WorkflowInputs inputs;
    Bag ext;
    for (int i = 0; i < 6; ++i) ext.Add(T({I(e * 10 + i)}));
    inputs["in"]["Ext"] = std::move(ext);
    auto outputs = exec.Execute(inputs, &graph);
    EXPECT_TRUE(outputs.ok()) << outputs.status().ToString();
  }
  graph.Seal();
  std::ostringstream out;
  EXPECT_TRUE(SaveGraph(graph, out).ok());
  return out.str();
}

/// The process's peak virtual size in KiB (VmPeak), or -1 where
/// /proc/self/status does not report it.
long VmPeakKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmPeak:", 0) == 0) return std::stol(line.substr(7));
  }
  return -1;
}

Status LoadBytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return LoadGraph(in).status();
}

/// An unsigned LEB128 varint, the codec's integer encoding.
std::string Varint(uint64_t v) {
  std::string out;
  for (; v >= 0x80; v >>= 7) out.push_back(static_cast<char>(v | 0x80));
  out.push_back(static_cast<char>(v));
  return out;
}

std::string U32(uint32_t v) {
  std::string out;
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> 8 * i));
  return out;
}

/// One frame with the given type byte and payload, CRC and all.
std::string Frame(uint8_t type, const std::string& payload) {
  std::string body(1, static_cast<char>(type));
  body += payload;
  return Varint(body.size()) + U32(walfmt::Crc32(body.data(), body.size())) +
         body;
}

/// A kStrings record of one string: the pool's next id.
std::string OneString(const std::string& s) {
  return Frame(1, Varint(1) + Varint(0) + Varint(s.size()) + s);
}

std::string GraphHeader() {
  std::string out;
  walfmt::EncodeHeader(&out, walfmt::kGraphMagic, 0);
  return out;
}

/// The extent record closing a file of `nodes` nodes in shard 0.
std::string Extent(size_t nodes, size_t invocations = 0) {
  ProvenanceGraph::Savepoint extent;
  extent.shard_sizes = {nodes};
  extent.invocation_count = invocations;
  std::string out;
  walfmt::EncodeSavepoint(&out, 0, extent);
  return out;
}

/// A file holding the string "tok" and one alive token node with the
/// given parents and invocation column, closed by its extent.
std::string OneNodeFile(std::vector<NodeId> parents, uint32_t invocation,
                        StrId payload = 1) {
  std::string out = GraphHeader() + OneString("tok");
  walfmt::EncodeNodeAppend(&out, MakeNodeId(0, 0), NodeLabel::kToken,
                           NodeRole::kIntermediate, internal::kAliveFlag,
                           invocation, payload, parents);
  return out + Extent(1);
}

/// Byte ranges (offset, length) of the frames of a graph file: a frame
/// ends where the scanner's valid prefix stands once it is read.
std::vector<std::pair<size_t, size_t>> FrameSpans(const std::string& file) {
  std::vector<std::pair<size_t, size_t>> spans;
  walfmt::SegmentScanner scanner(file, walfmt::kGraphMagic);
  walfmt::Record rec;
  while (scanner.Next(&rec)) {
    spans.emplace_back(rec.offset, scanner.valid_prefix() - rec.offset);
  }
  return spans;
}

/// The CRC-32 definition, one byte per step, for checking the
/// word-at-a-time implementation against.
uint32_t ByteAtATimeCrc32(const unsigned char* p, size_t n) {
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(WalFormatTest, Crc32MatchesTheByteAtATimeDefinition) {
  EXPECT_EQ(walfmt::Crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(walfmt::Crc32(nullptr, 0), 0u);
  Rng rng(7);
  std::vector<unsigned char> buf(4096 + 8);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.Next());
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.push_back(4096);
  for (size_t start = 0; start < 8; ++start) {
    for (size_t n : lengths) {
      const unsigned char* p = buf.data() + start;
      EXPECT_EQ(walfmt::Crc32(p, n), ByteAtATimeCrc32(p, n))
          << "start " << start << ", length " << n;
    }
  }
}

TEST(ProvioRobustnessTest, TruncationSweepAlwaysReturnsStatus) {
  std::string full = TrackedGraphDump();
  ASSERT_GT(full.size(), 4096u) << "dump too small for a meaningful sweep";

  // The intact dump loads.
  LIPSTICK_EXPECT_OK(LoadBytes(full));
  // Every proper prefix must be rejected: the cut lands in the header, mid
  // frame (torn tail), or after a complete frame but before the closing
  // extent record. Never a crash, never a silently short graph.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Status st = LoadBytes(full.substr(0, cut));
    EXPECT_EQ(st.code(), StatusCode::kParseError)
        << "prefix of " << cut << " bytes: " << st.ToString();
  }
}

TEST(ProvioRobustnessTest, LoadStreamsAcrossScannerWindows) {
  // A 200 KiB string and 40,000 chained nodes: many times the scanner's
  // 64 KiB window, with frames straddling window boundaries and one frame
  // longer than a window.
  constexpr size_t kNodes = 40000;
  std::string file = GraphHeader() + OneString(std::string(200 * 1024, 'x'));
  for (size_t i = 0; i < kNodes; ++i) {
    std::vector<NodeId> parents;
    if (i > 0) parents.push_back(MakeNodeId(0, i - 1));
    walfmt::EncodeNodeAppend(&file, MakeNodeId(0, i), NodeLabel::kToken,
                             NodeRole::kIntermediate, internal::kAliveFlag,
                             kNoInvocation, 1, parents);
  }
  file += Extent(kNodes);
  ASSERT_GT(file.size(), 8u * 64 * 1024);

  std::istringstream in(file);
  Result<ProvenanceGraph> graph = LoadGraph(in);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->num_nodes(), kNodes);
  std::ostringstream again;
  LIPSTICK_ASSERT_OK(SaveGraph(*graph, again));
  EXPECT_EQ(again.str(), file);

  // A cut names the segment offset of the frame it tears, however many
  // windows precede it; a cut on a frame boundary loses the extent.
  const auto spans = FrameSpans(file);
  for (size_t cut : {size_t{64 * 1024}, size_t{300 * 1024 + 5},
                     size_t{5 * 64 * 1024 + 13}, file.size() - 1,
                     spans[spans.size() / 2].first}) {
    Status st = LoadBytes(file.substr(0, cut));
    ASSERT_EQ(st.code(), StatusCode::kParseError) << "cut " << cut;
    auto torn = std::find_if(spans.begin(), spans.end(), [&](auto span) {
      return span.first < cut && cut < span.first + span.second;
    });
    const std::string want =
        torn == spans.end()
            ? std::string("missing the closing extent record")
            : StrCat("torn at byte ", torn->first, " (");
    EXPECT_NE(st.message().find(want), std::string::npos)
        << "cut " << cut << ": " << st.message();
  }
}

TEST(ProvioRobustnessTest, GarbageHeadersRejected) {
  std::string wrong_version = GraphHeader() + Extent(0);
  wrong_version[walfmt::kMagicBytes] = 1;
  std::string wrong_sequence = GraphHeader() + Extent(0);
  wrong_sequence[walfmt::kMagicBytes + 4] = 7;
  // A WAL segment carries the log's magic, not the graph file's.
  std::string wal_segment;
  walfmt::EncodeHeader(&wal_segment, walfmt::kWalMagic, 0);
  wal_segment += Extent(0);
  for (const std::string& garbage :
       {std::string(), std::string("\x7f\x45\x4c\x46\x02\x01"),
        std::string("LIPSTICKGRAPH v2\nshards 1\nstrings 0\nend\n"),
        std::string("totally not a graph\n"), wrong_version, wrong_sequence,
        wal_segment}) {
    Status st = LoadBytes(garbage);
    EXPECT_EQ(st.code(), StatusCode::kParseError) << "accepted: " << garbage;
  }
  EXPECT_NE(LoadBytes(wal_segment).message().find("magic"), std::string::npos);
  // A file of the earlier fixed-width format fails at its magic, and a
  // segment of the earlier version at its version, each on one line.
  std::string old_magic = GraphHeader() + Extent(0);
  old_magic.replace(0, walfmt::kMagicBytes, "LIPSTICKPG01");
  for (const auto& [bytes, names] :
       {std::pair<std::string, std::string>{old_magic, "magic"},
        std::pair<std::string, std::string>{wrong_version, "version 1"}}) {
    Status st = LoadBytes(bytes);
    EXPECT_EQ(st.code(), StatusCode::kParseError);
    EXPECT_NE(st.message().find(names), std::string::npos) << st;
    EXPECT_EQ(st.message().find('\n'), std::string::npos) << st;
  }
  // The smallest graph file: a header and the empty extent.
  LIPSTICK_EXPECT_OK(LoadBytes(GraphHeader() + Extent(0)));
}

TEST(ProvioRobustnessTest, OversizedCountsRejectedWithoutAllocating) {
  auto max_rss_kb = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
  };
  const long before = max_rss_kb();
  auto strings = [](uint64_t n, const std::string& entries) {
    return Frame(1, Varint(n) + entries);
  };
  auto entry = [](uint64_t shared, const std::string& suffix) {
    return Varint(shared) + Varint(suffix.size()) + suffix;
  };
  const std::string tok = GraphHeader() + strings(1, entry(0, "tok"));
  // An alive token node of shard 0: shard, packed columns, invocation + 1,
  // payload, parent count, then the parent references.
  auto node = [](uint64_t invocation_plus_1, uint64_t payload, uint64_t n,
                 const std::string& parents) {
    return Frame(2, Varint(0) + Varint(internal::kAliveFlag) +
                        Varint(invocation_plus_1) + Varint(payload) +
                        Varint(n) + parents);
  };
  const std::string one_node = tok + node(0, 1, 0, "");
  const std::string extent1 = Extent(1);
  // The well-formed versions of the records below load.
  LIPSTICK_ASSERT_OK(LoadBytes(one_node + extent1));
  LIPSTICK_ASSERT_OK(LoadBytes(
      tok + node(0, 1, 0, "") +
      node(0, 1, 1, Varint(1 << 1)) /* delta -1: node 0 */ + Extent(2)));
  const std::string long_prev(300, 'a');
  LIPSTICK_ASSERT_OK(LoadBytes(
      GraphHeader() +
      strings(2, entry(0, long_prev) + entry(walfmt::kMaxSharedPrefix, "b")) +
      Extent(0)));

  const std::vector<std::pair<std::string, std::string>> rejected = {
      // A short node record claiming 2^24 parents: rejected before the
      // parent list is reserved (128 MiB if it were).
      {"2^24 parents", tok + node(0, 1, 1u << 24, Varint(2)) + extent1},
      // A string record claiming 2^31 strings, and one claiming four
      // strings in the six bytes of three: rejected before the pool
      // reserves for them.
      {"2^31 strings", GraphHeader() + strings(1u << 31, entry(0, "x")) +
                           Extent(0)},
      {"4 strings in the bytes of 3",
       GraphHeader() +
           strings(4, entry(0, "") + entry(0, "") + entry(0, "")) +
           Extent(0)},
      // A shared prefix longer than the string before it, and one over
      // the cap (the string before is long enough).
      {"prefix past the previous string",
       tok + strings(1, entry(4, "x")) + Extent(0)},
      {"prefix over the cap",
       GraphHeader() +
           strings(2, entry(0, long_prev) +
                          entry(walfmt::kMaxSharedPrefix + 1, "b")) +
           Extent(0)},
      // An 11-byte varint, and a 10-byte one wider than 64 bits.
      {"11-byte varint",
       tok + Frame(2, std::string(10, '\x80') + std::string(1, '\0') +
                          Varint(1) + Varint(0) + Varint(1) + Varint(0)) +
           extent1},
      {"65-bit varint",
       tok + Frame(2, std::string(9, '\x80') + std::string(1, '\x02') +
                          Varint(1) + Varint(0) + Varint(1) + Varint(0)) +
           extent1},
      // Varints past a u32 field, each of which would read as a valid
      // value if truncated to 32 bits.
      {"payload past u32", tok + node(0, (1ull << 32) + 1, 0, "") + extent1},
      {"invocation past u32", tok + node(1ull << 32, 1, 0, "") + extent1},
      {"count past u32", tok + node(0, 1, 1ull << 32, "") + extent1},
      // The first node's parent at delta -1: below index 0.
      {"parent delta below index 0", tok + node(0, 1, 1, Varint(2)) + extent1},
      // An extent claiming 2^32-1 shards.
      {"2^32-1 shards",
       one_node + Frame(12, Varint(0) + Varint(0) + Varint(0xffffffffu))},
      // A string claiming 4 GB, and a string value claiming 4 GB.
      {"4 GB string",
       GraphHeader() + strings(1, Varint(0) + Varint(4000000000u)) +
           Extent(0)},
      {"4 GB string value",
       one_node + Frame(3, Varint(1 << 1 | 1) + Varint(0) + "S" +
                               Varint(4000000000u)) +
           extent1},
      // A frame claiming a 64 MiB record in a file of a few bytes: the
      // load reads what the file holds, not what the length claims.
      {"64 MiB frame",
       GraphHeader() + Varint(walfmt::kMaxRecordBytes) + U32(0) + "x"},
  };
  for (const auto& [what, bytes] : rejected) {
    EXPECT_EQ(LoadBytes(bytes).code(), StatusCode::kParseError) << what;
  }

  // Recovery reserves the graph for its boundary's extent before replay,
  // so the extent must not size anything by its claims: a savepoint of
  // two shards of 2^40 nodes and 2^40 invocations, and one of 10,000 such
  // shards behind a MiB of frames that pass the CRC check (a string
  // record whose count is malformed). Only replay rejects either log.
  const std::string savepoint2 =
      Frame(12, Varint(0) + Varint(uint64_t{1} << 40) + Varint(2) +
                    Varint(uint64_t{1} << 40) + Varint(uint64_t{1} << 40));
  std::string many_shards = Varint(0) + Varint(uint64_t{1} << 40) +
                            Varint(10000);
  for (int s = 0; s < 10000; ++s) many_shards += Varint(uint64_t{1} << 40);
  const std::pair<const char*, std::string> hostile_logs[] = {
      {"2 shards", strings(1u << 31, entry(0, "x")) + savepoint2},
      {"10,000 shards", Frame(1, std::string(1 << 20, '\x80')) +
                            Frame(12, many_shards)},
  };
  const auto dir = std::filesystem::temp_directory_path() /
                   StrCat("lipstick_hostile_extent_", ::getpid());
  for (const auto& [what, frames] : hostile_logs) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
      std::string segment;
      walfmt::EncodeHeader(&segment, walfmt::kWalMagic, 1);
      std::ofstream out(dir / walfmt::SegmentFileName(1), std::ios::binary);
      out << segment << frames;
    }
    // Reserved pages are not touched, so max RSS alone cannot see an
    // oversized reservation; the peak virtual size can.
    const long vm_before = VmPeakKb();
    EXPECT_EQ(RecoverGraph(dir.string()).status().code(),
              StatusCode::kParseError)
        << what;
    if (vm_before >= 0) {
      EXPECT_LT(VmPeakKb() - vm_before, 1024 * 1024)
          << what << ": KiB of peak virtual size growth";
    }
  }
  std::filesystem::remove_all(dir);
  EXPECT_LT(max_rss_kb() - before, 32 * 1024) << "KiB of max RSS growth";
}

TEST(ProvioRobustnessTest, MissingExtentRecordRejected) {
  std::string full = TrackedGraphDump();
  std::vector<std::pair<size_t, size_t>> frames = FrameSpans(full);
  ASSERT_FALSE(frames.empty());
  // Cut exactly at the last frame boundary: every remaining frame is whole.
  Status st = LoadBytes(full.substr(0, frames.back().first));
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("extent record"), std::string::npos) << st;
  // A valid frame after the extent record is rejected the same way.
  std::string trailing = full;
  walfmt::EncodeCommitInvocation(&trailing, 0);
  st = LoadBytes(trailing);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("extent record"), std::string::npos) << st;
  // An extent that disagrees with the records.
  st = LoadBytes(full.substr(0, frames.back().first) + Extent(1));
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("savepoint expects"), std::string::npos) << st;
}

TEST(ProvioRobustnessTest, DanglingReferencesRejected) {
  // Node whose parent list names a node that is never defined.
  Status st = LoadBytes(OneNodeFile({MakeNodeId(0, 1)}, kNoInvocation));
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("undefined parent"), std::string::npos) << st;

  // Alive node tagged with an invocation that was never recorded.
  st = LoadBytes(OneNodeFile({}, 7));
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("undefined invocation"), std::string::npos)
      << st;

  // Payload naming a string the file never interned.
  EXPECT_EQ(LoadBytes(OneNodeFile({}, kNoInvocation, 2)).code(),
            StatusCode::kParseError);

  // Invocation whose m-node was never defined.
  std::string file = OneNodeFile({}, kNoInvocation);
  file.resize(file.size() - Extent(1).size());
  InvocationInfo inv;
  inv.module_name = 1;
  inv.instance_name = 1;
  inv.m_node = MakeNodeId(0, 5);
  walfmt::EncodeBeginInvocation(&file, 0, inv);
  EXPECT_EQ(LoadBytes(file + Extent(1, 1)).code(), StatusCode::kParseError);
}

TEST(ProvioRobustnessTest, MalformedRecordsRejected) {
  const std::string header = GraphHeader();
  // Out-of-range labels: far out, and one past the last.
  std::string bad_label = header + OneString("tok");
  walfmt::EncodeNodeAppend(&bad_label, MakeNodeId(0, 0),
                           static_cast<NodeLabel>(99), NodeRole::kIntermediate,
                           internal::kAliveFlag, kNoInvocation, 1, {});
  EXPECT_EQ(LoadBytes(bad_label + Extent(1)).code(), StatusCode::kParseError);
  const uint32_t past_last_label = static_cast<uint32_t>(kNumNodeLabels) << 5;
  EXPECT_EQ(LoadBytes(header +
                      Frame(2, Varint(0) + Varint(past_last_label) +
                                   Varint(0) + Varint(0) + Varint(0)) +
                      Extent(1))
                .code(),
            StatusCode::kParseError);
  // Unknown record type, and a known one with trailing payload bytes.
  EXPECT_EQ(LoadBytes(header + Frame(99, "x") + Extent(0)).code(),
            StatusCode::kParseError);
  EXPECT_EQ(LoadBytes(header + Frame(11, std::string(5, '\0')) + Extent(0))
                .code(),
            StatusCode::kParseError);
  // A node record names its shard, not its index: the index is the
  // shard's size, so a missing node shows as an extent the records do
  // not reach.
  std::string short_shard = header;
  walfmt::EncodeNodeAppend(&short_shard, MakeNodeId(0, 1), NodeLabel::kToken,
                           NodeRole::kIntermediate, internal::kAliveFlag,
                           kNoInvocation, 0, {});
  Status st = LoadBytes(short_shard + Extent(2));
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("savepoint expects"), std::string::npos) << st;
}

TEST(ProvioRobustnessTest, SeededMutationsLoadOrReturnStatus) {
  // Byte flips and truncations exercise the framing checks; whole-frame
  // drops, duplicates and swaps keep every CRC valid, so they reach the
  // replayer's semantic checks. A mutant either loads — and then seals and
  // answers a query — or is rejected with a ParseError.
  const std::string full = TrackedGraphDump();
  const std::vector<std::pair<size_t, size_t>> frames = FrameSpans(full);
  ASSERT_GT(frames.size(), 2u);
  auto frame_bytes = [&](size_t k) {
    return full.substr(frames[k].first, frames[k].second);
  };
  Rng rng(0x5eed);
  Result<Plan> stats = ParsePlan("stats", {});
  LIPSTICK_ASSERT_OK(stats.status());
  const OptimizedPlan plan = OptimizePlan(*stats);
  int loaded = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string m = full;
    size_t a = static_cast<size_t>(rng.Uniform(0, frames.size() - 1));
    size_t b = static_cast<size_t>(rng.Uniform(0, frames.size() - 1));
    switch (rng.Uniform(0, 4)) {
      case 0:  // flip one byte
        m[rng.Uniform(0, m.size() - 1)] ^=
            static_cast<char>(rng.Uniform(1, 255));
        break;
      case 1:  // truncate
        m.resize(rng.Uniform(0, m.size() - 1));
        break;
      case 2:  // drop a frame
        m.erase(frames[a].first, frames[a].second);
        break;
      case 3:  // duplicate a frame in front of another
        m.insert(frames[b].first, frame_bytes(a));
        break;
      case 4: {  // swap two frames
        if (a > b) std::swap(a, b);
        if (a == b) continue;
        size_t a_end = frames[a].first + frames[a].second;
        m = full.substr(0, frames[a].first) + frame_bytes(b) +
            full.substr(a_end, frames[b].first - a_end) + frame_bytes(a) +
            full.substr(frames[b].first + frames[b].second);
        break;
      }
    }
    std::istringstream in(m);
    Result<ProvenanceGraph> graph = LoadGraph(in);
    if (!graph.ok()) {
      EXPECT_EQ(graph.status().code(), StatusCode::kParseError)
          << "mutant " << i << ": " << graph.status();
      continue;
    }
    ++loaded;
    graph->Seal();
    Result<GraphSnapshot> snap = GraphSnapshot::Capture(*graph);
    LIPSTICK_ASSERT_OK(snap.status());
    LIPSTICK_EXPECT_OK(ExecutePlan(*snap, plan).status());
  }
  EXPECT_GT(loaded, 0) << "no mutant reached a loaded graph";
}

TEST(ProvioTest, LoadedGraphHoldsNoSpareCapacity) {
  // A dealership run on two workers: several shards, wide fan-in nodes
  // (parents in the edge arena) and aggregate values.
  workflowgen::DealershipConfig cfg;
  cfg.num_cars = 200;
  cfg.num_executions = 3;
  cfg.num_workers = 2;
  cfg.seed = 11;
  auto wf = workflowgen::DealershipWorkflow::Create(cfg);
  LIPSTICK_ASSERT_OK(wf.status());
  ProvenanceGraph tracked;
  LIPSTICK_ASSERT_OK((*wf)->Run(&tracked).status());
  tracked.Seal();
  ASSERT_GT(tracked.num_shards(), 1u);
  std::ostringstream saved;
  LIPSTICK_ASSERT_OK(SaveGraph(tracked, saved));
  const std::string bytes = saved.str();
  const std::string path =
      (std::filesystem::temp_directory_path() / "lipstick_exact_size.pg")
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  Result<ProvenanceGraph> graph = LoadGraphFromFile(path);
  std::filesystem::remove(path);
  LIPSTICK_ASSERT_OK(graph.status());
  // One row of the node columns: label, role, flags, invocation, payload,
  // parent slot and value index.
  constexpr size_t kRowBytes = sizeof(NodeLabel) + sizeof(NodeRole) +
                               sizeof(uint8_t) + sizeof(uint32_t) +
                               sizeof(StrId) + sizeof(internal::ParentSlot) +
                               sizeof(uint32_t);
  size_t overflow_parents = 0, values = 0;
  graph->ForEachNode([&](NodeId id) {
    NodeView n = graph->node(id);
    if (n.num_parents() > internal::kInlineParents) {
      overflow_parents += n.num_parents();
    }
    values += n.value().is_null() ? 0 : 1;
  });
  ASSERT_GT(overflow_parents, 0u);
  ASSERT_GT(values, 0u);
  ProvenanceGraph::MemoryStats mem = graph->ComputeMemoryStats();
  EXPECT_EQ(mem.column_bytes, graph->num_nodes() * kRowBytes);
  EXPECT_EQ(mem.edge_arena_bytes, overflow_parents * sizeof(NodeId));
  EXPECT_EQ(mem.value_bytes, values * sizeof(Value));
  // Trimming changes no byte of the graph: Save(Load(Save(g))) == Save(g).
  graph->Seal();
  std::ostringstream again;
  LIPSTICK_ASSERT_OK(SaveGraph(*graph, again));
  EXPECT_EQ(again.str(), bytes);
}

TEST(ProvioTest, PackedRecordsFitTheScannerWindow) {
  // 20,000 names of the tracker's `<prefix>[<i>]` form and 20,000 state
  // nodes of one invocation: several packed string and invocation-node
  // records, each far inside the loader's 64 KiB window.
  ProvenanceGraph graph;
  ShardWriter writer = graph.writer();
  const uint32_t inv = writer.BeginInvocation("dealer", "dealer1", 0);
  for (int i = 0; i < 20000; ++i) {
    const NodeId tuple =
        writer.Token(StrCat("dealer1.Cars[", i, "]"), NodeRole::kStateBase);
    writer.ModuleState(inv, tuple);
  }
  graph.Seal();
  std::ostringstream saved;
  LIPSTICK_ASSERT_OK(SaveGraph(graph, saved));
  const std::string bytes = saved.str();
  std::map<walfmt::RecordType, int> records;
  size_t string_bytes = 0;
  walfmt::SegmentScanner scanner(bytes, walfmt::kGraphMagic);
  walfmt::Record rec;
  while (scanner.Next(&rec)) {
    const size_t frame = scanner.valid_prefix() - rec.offset;
    ++records[rec.type];
    EXPECT_LE(frame, 64u * 1024);
    if (rec.type == walfmt::RecordType::kStrings) string_bytes += frame;
  }
  EXPECT_GT(records[walfmt::RecordType::kStrings], 1);
  EXPECT_GT(records[walfmt::RecordType::kInvocationNodes], 1);
  // Front coding keeps each of these names to a few bytes.
  EXPECT_LT(string_bytes, 20000u * 6);
  std::istringstream in(bytes);
  Result<ProvenanceGraph> loaded = LoadGraph(in);
  LIPSTICK_ASSERT_OK(loaded.status());
  EXPECT_EQ(loaded->invocations()[inv].state_nodes,
            graph.invocations()[inv].state_nodes);
  std::ostringstream again;
  LIPSTICK_ASSERT_OK(SaveGraph(*loaded, again));
  EXPECT_EQ(again.str(), bytes);
}

TEST(ProvioRobustnessTest, WriteFailureAtCloseIsReported) {
  // The whole file fits the stream's buffer, so the write fails only when
  // close() flushes it: the save must still report the failure.
  ProvenanceGraph graph;
  graph.writer().Token("x");
  Status st = SaveGraphToFile(graph, "/dev/full");
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st;
}

TEST(ProvioRobustnessTest, DirectoryPathRejectedWithOneLineError) {
  Result<ProvenanceGraph> r = LoadGraphFromFile("/tmp");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().message().find("directory"), std::string::npos);
}

}  // namespace
}  // namespace lipstick
