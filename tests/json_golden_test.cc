/// \file
/// Exact-bytes goldens for the JSON documents that no other test pins:
/// the metric registry, the time-series and SLO exports, the request
/// tracker (object and NDJSON forms), journal event lines and the ring,
/// and the debugger's point table. Every input is deterministic (explicit
/// timestamps, explicit `now`), so each document must serialize to
/// exactly the string below; a change in key order, number formatting,
/// escaping or separators shows up here.

#include <string>

#include <gtest/gtest.h>

#include "runtime/runtime.h"
#include "telemetry/export.h"
#include "telemetry/journal.h"
#include "telemetry/request_trace.h"
#include "telemetry/telemetry.h"

namespace cascade {
namespace {

TEST(JsonGolden, RegistryJson)
{
    telemetry::Registry reg;
    reg.counter("a.count")->inc(3);
    reg.counter("q\"uote")->inc();
    telemetry::Gauge* g = reg.gauge("g.depth");
    g->set(5);
    g->set(-2);
    telemetry::Histogram* h = reg.histogram("h.ns");
    for (const uint64_t v : {1u, 2u, 3u, 1000u}) {
        h->record(v);
    }
    reg.histogram("empty");
    EXPECT_EQ(reg.json(),
              R"({"counters":{"a.count":3,"q\"uote":1},)"
              R"("gauges":{"g.depth":{"value":-2,"high_water":5}},)"
              R"("histograms":{"empty":{"count":0,"sum":0,"min":0,"max":0,)"
              R"("mean":0,"p50":0,"p90":0,"p99":0},)"
              R"("h.ns":{"count":4,"sum":1006,"min":1,"max":1000,)"
              R"("mean":251.5,"p50":2,"p90":724,"p99":724}}})");
}

TEST(JsonGolden, TimeSeriesJson)
{
    telemetry::TimeSeries ts(4);
    ts.sample("b", 0.5, 1.25);
    ts.sample("b", 1.0 / 3.0, 2e-7);
    for (int i = 0; i < 5; ++i) {
        ts.sample("a\\z", 0.1 * i, 1000000.0 * i + 0.5);
    }
    EXPECT_EQ(ts.json(),
              R"({"schema":"cascade.timeseries.v1","capacity":4,)"
              R"("series":{"a\\z":{"stride":2,"points":)"
              R"([[0.05,500000],[0.25,2.5e+06],[0.4,4e+06]]},)"
              R"("b":{"stride":1,"points":[[0.5,1.25],[0.333333,2e-07]]}}})");

    telemetry::TimeSeries empty;
    EXPECT_EQ(empty.json(),
              R"({"schema":"cascade.timeseries.v1","capacity":512,)"
              R"("series":{}})");
}

TEST(JsonGolden, SloTrackerJson)
{
    telemetry::SloTracker::Config cfg;
    cfg.window_s = 30;
    cfg.max_cold_compile_p99_s = 0.5;
    cfg.min_ticks_per_s = 100;
    telemetry::SloTracker slo(cfg);
    slo.record_cold_compile(1.0, 0.75);
    slo.record_cold_compile(2.0, 1.0 / 3.0);
    slo.record_ticks_per_s(1.0, "t\"1", 50.125);
    slo.tick(2.0, [](const telemetry::SloTracker::Objective&) {});
    EXPECT_EQ(slo.json(2.5),
              R"({"schema":"cascade.slo.v1","breached":true,"window_s":30,)"
              R"("objectives":[{"name":"cold_compile_p99_s","observed":0.75,)"
              R"("threshold":0.5,"bound":"upper","samples":2,)"
              R"("breached":true,"breaches":1},)"
              R"({"name":"min_ticks_per_s","tenant":"t\"1",)"
              R"("observed":50.125,"threshold":100,"bound":"lower",)"
              R"("samples":1,"breached":true,"breaches":1}]})");
}

TEST(JsonGolden, RequestTrackerJsonAndNdjson)
{
    telemetry::RequestTracker tracker;
    tracker.complete(7, "eval", 1, 0, 10.0, 12.5, "eval", true);
    tracker.begin(9, "compile", 2, 3, 20.0);
    tracker.add_segment(9, "queue", 1.25);
    tracker.add_segment(9, "place", 2.0 / 3.0);
    tracker.annotate_cache(9, true);
    tracker.end(9, false, 25.125);
    tracker.begin(11, "interrupt", 2, 0, 30.0); // still open
    const std::string r7 =
        R"({"id":7,"kind":"eval","version":1,"tenant":0,"done":true,)"
        R"("ok":true,"cache_hit":false,"start_us":10.000,)"
        R"("total_us":2.500,"segments":[{"name":"eval","us":2.500}]})";
    const std::string r9 =
        R"({"id":9,"kind":"compile","version":2,"tenant":3,"done":true,)"
        R"("ok":false,"cache_hit":true,"start_us":20.000,)"
        R"("total_us":5.125,"segments":[{"name":"queue","us":1.250},)"
        R"({"name":"place","us":0.667}]})";
    const std::string r11 =
        R"({"id":11,"kind":"interrupt","version":2,"tenant":0,)"
        R"("done":false,"ok":false,"cache_hit":false,"start_us":30.000,)"
        R"("total_us":0.000,"segments":[]})";
    EXPECT_EQ(tracker.json(),
              R"({"schema":"cascade.requests.v1","completed":2,"open":1,)"
              R"("requests":[)" +
                  r7 + ',' + r9 + ',' + r11 + "]}\n");
    EXPECT_EQ(tracker.ndjson(), r7 + '\n' + r9 + '\n' + r11 + '\n');

    telemetry::RequestTracker empty;
    EXPECT_EQ(empty.json(),
              R"({"schema":"cascade.requests.v1","completed":0,"open":0,)"
              R"("requests":[]})"
              "\n");
    EXPECT_EQ(empty.ndjson(), "");
}

TEST(JsonGolden, JournalEventLinesAndRing)
{
    telemetry::Journal j(2);
    uint64_t now = 5;
    j.set_clock([&now] { return now; });
    j.record("eval", "{\"text\":\"x\"}");
    now = 6;
    j.record("a\"b");
    j.set_tenant(4);
    j.record("log", "{\"n\":1}");
    const auto ring = j.ring();
    ASSERT_EQ(ring.size(), 2u);
    const std::string untagged =
        R"({"seq":2,"vt":6,"type":"a\"b","data":{}})";
    const std::string tagged =
        R"({"seq":3,"vt":6,"type":"log","tenant":4,"data":{"n":1}})";
    EXPECT_EQ(telemetry::Journal::event_json(ring[0]), untagged);
    EXPECT_EQ(telemetry::Journal::event_json(ring[1]), tagged);
    EXPECT_EQ(j.ring_json(), '[' + untagged + ',' + tagged + ']');

    telemetry::Journal none;
    EXPECT_EQ(none.ring_json(), "[]");
}

TEST(JsonGolden, DebugJsonWithBreakAndWatch)
{
    runtime::Runtime::Options opts;
    opts.enable_hardware = false;
    runtime::Runtime rt(opts);
    rt.on_output = [](const std::string&) {};
    std::string err;
    ASSERT_TRUE(rt.eval(R"(
        reg [7:0] cnt = 0;
        always @(posedge clk.val)
          cnt <= cnt + 1;
    )", &err)) << err;
    EXPECT_EQ(rt.debug_json(),
              R"({"schema":"cascade.debug.v1","halted":false,)"
              R"("hw_armed":false,"fires":0,"points":0,"table":[]})");
    ASSERT_NE(rt.debug_break("cnt", ">=", "3", &err), 0u) << err;
    ASSERT_NE(rt.debug_watch("cnt", &err), 0u) << err;
    EXPECT_EQ(rt.debug_json(),
              R"({"schema":"cascade.debug.v1","halted":false,)"
              R"("hw_armed":false,"fires":0,"points":2,"table":[)"
              R"({"id":1,"kind":"break","signal":"cnt","op":">=",)"
              R"("value":"3","hits":0},)"
              R"({"id":2,"kind":"watch","signal":"cnt","hits":0}]})");
}

} // namespace
} // namespace cascade
