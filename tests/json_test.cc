/// \file
/// The JSON module: JsonWriter nesting, separators, escaping and number
/// formats, and a well-formedness sweep that parses every document a
/// shared-mode session serves after hostile strings (quote, backslash,
/// newline, control byte) have gone through its tenant name, a watched
/// signal's name and its $display output.

#include "common/json.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "hypervisor/fabric_manager.h"
#include "runtime/runtime.h"
#include "service/compile_service.h"
#include "telemetry/journal.h"
#include "telemetry/sync.h"
#include "telemetry/trace.h"

namespace cascade {
namespace {

TEST(JsonWriter, NestsContainersAndPlacesCommas)
{
    JsonWriter w;
    w.num("a", 1)
        .begin_array("xs")
        .num(2)
        .begin_object()
        .str("k", "v")
        .end_object()
        .begin_array()
        .end_array()
        .str("s")
        .end_array()
        .begin_object("o")
        .end_object()
        .boolean("t", true);
    EXPECT_EQ(w.build(),
              R"({"a":1,"xs":[2,{"k":"v"},[],"s"],"o":{},"t":true})");
}

TEST(JsonWriter, BuildClosesOpenContainers)
{
    JsonWriter w;
    w.begin_object("o").begin_array("xs").num(1);
    EXPECT_EQ(w.build(), R"({"o":{"xs":[1]}})");
    // build() does not consume: the writer can keep going.
    w.num(2).end_array().num("n", 3);
    EXPECT_EQ(w.build(), R"({"o":{"xs":[1,2],"n":3}})");
    EXPECT_EQ(JsonWriter().build(), "{}");
    EXPECT_EQ(JsonWriter(JsonWriter::Root::Array).build(), "[]");
}

TEST(JsonWriter, EscapesKeysAndStrings)
{
    const std::string hostile = std::string("q\"b\\n\nc") + '\x01';
    const std::string doc = JsonWriter().str(hostile, hostile).build();
    EXPECT_EQ(doc, R"({"q\"b\\n\nc\u0001":"q\"b\\n\nc\u0001"})");
    JsonValue v;
    ASSERT_TRUE(parse_json(doc, &v)) << doc;
    EXPECT_EQ(v.get_str(hostile), hostile);
}

TEST(JsonWriter, NumberFormats)
{
    JsonWriter w(JsonWriter::Root::Array);
    w.num(18446744073709551615ull)
        .num_signed(-7)
        .dbl(0.1)
        .dbl(2.0 / 3.0, "%.3f")
        .dbl(1e-7, "%.6g")
        .raw("null");
    EXPECT_EQ(w.build(),
              "[18446744073709551615,-7,0.10000000000000001,0.667,1e-07,"
              "null]");
}

// ---------------------------------------------------------------------------
// Well-formedness of every served document
// ---------------------------------------------------------------------------

/// Parses \p doc, failing the test with the document on error.
void
expect_parses(const std::string& what, const std::string& doc)
{
    JsonValue v;
    std::string err;
    EXPECT_TRUE(parse_json(doc, &v, &err))
        << what << ": " << err << "\n" << doc.substr(0, 4000);
}

/// Parses each line of a JSONL / NDJSON document; returns the count.
size_t
expect_lines_parse(const std::string& what, const std::string& text)
{
    std::istringstream in(text);
    std::string line;
    size_t n = 0;
    while (std::getline(in, line)) {
        expect_parses(what + " line " + std::to_string(++n), line);
    }
    return n;
}

TEST(JsonWellFormed, EveryDocumentOfAHostileSharedSessionParses)
{
    const std::string hostile = std::string("t\"\\\n") + '\x01';
    const std::string journal_path =
        (std::filesystem::temp_directory_path() /
         ("cascade_json_test_" + std::to_string(::getpid()) + ".jsonl"))
            .string();

    service::CompileService::Config cfg;
    cfg.workers = 1;
    service::CompileService svc(cfg);
    hypervisor::FabricManager fm;
    runtime::Runtime::Options opts;
    opts.enable_hardware = true;
    opts.compile_effort = 0.05;
    opts.compile_seed = 7;
    opts.profiling = true;
    opts.tenant_name = hostile;
    opts.timeseries_interval_s = 1e-6;
    opts.slo_max_cold_compile_p99_s = 1e-9;
    opts.slo_min_ticks_per_s = 1e12;
    runtime::Runtime rt(opts, svc, fm);
    std::string displayed;
    rt.on_output = [&displayed](const std::string& s) { displayed += s; };
    std::string err;
    ASSERT_TRUE(rt.start_recording(journal_path, &err)) << err;

    // An escaped identifier carries the quote and backslash into the
    // signal name; the $display string carries all four characters.
    const std::string program = std::string(R"(
        reg [7:0] \q"\w = 0;
        always @(posedge clk.val) begin
          \q"\w <= \q"\w + 1;
          if (\q"\w == 3)
            $display("d\"\\\n)") + '\x01' + R"(");
        end
    )";
    ASSERT_TRUE(rt.eval(program, &err)) << err;
    ASSERT_NE(rt.debug_break("q\"\\w", "==", "200", &err), 0u) << err;
    ASSERT_TRUE(rt.add_probe("q\"\\w", &err)) << err;
    rt.run_for_ticks(8);
    rt.wait_for_hardware(120.0);
    rt.run_for_ticks(8);
    // Armed last: a watchpoint halts the session on the next change.
    ASSERT_NE(rt.debug_watch("q\"\\w", &err), 0u) << err;
    EXPECT_NE(displayed.find(std::string("d\"\\\n") + '\x01'),
              std::string::npos)
        << displayed;

    const std::string stats = rt.stats_json();
    EXPECT_NE(stats.find("\"compile\":"), std::string::npos);
    expect_parses("stats", stats);
    expect_parses("profile", rt.profile_json());
    const std::string debug = rt.debug_json();
    EXPECT_NE(debug.find(R"("signal":"q\"\\w")"), std::string::npos)
        << debug;
    expect_parses("debug", debug);
    const std::string slo = rt.slo_json();
    EXPECT_NE(slo.find(R"("tenant":"t\"\\\n\u0001")"), std::string::npos)
        << slo;
    expect_parses("slo", slo);
    expect_parses("timeseries", rt.timeseries_json());
    expect_parses("requests", rt.requests_json());
    EXPECT_GT(expect_lines_parse("requests ndjson", rt.requests_ndjson()),
              0u);
    expect_parses("contention",
                  telemetry::SyncRegistry::global().contention_json());
    expect_parses("runtime registry", rt.telemetry().json());
    expect_parses("process registry",
                  telemetry::Registry::global().json());
    expect_parses("trace", telemetry::Tracer::global().chrome_json());
    expect_parses("journal ring", rt.journal().ring_json());
    expect_parses("crash dump",
                  telemetry::BlackBox::instance().dump_json(hostile));

    rt.stop_recording();
    std::ifstream in(journal_path);
    std::stringstream lines;
    lines << in.rdbuf();
    const std::string journal = lines.str();
    EXPECT_NE(journal.find(R"(q\"\\w)"), std::string::npos);
    EXPECT_GT(expect_lines_parse("journal", journal), 2u);
    std::filesystem::remove(journal_path);
}

} // namespace
} // namespace cascade
