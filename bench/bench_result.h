/// \file
/// The headline result file every bench writes: `BENCH_<name>.json` in
/// the working directory, one `cascade.bench.v1` object that opens with
/// the schema and bench name. CI's smoke/nightly jobs and
/// check_bench_regression.py consume these files.

#ifndef CASCADE_BENCH_BENCH_RESULT_H
#define CASCADE_BENCH_BENCH_RESULT_H

#include <cstdio>
#include <fstream>
#include <string>

#include "common/json.h"

namespace cascade::bench {

/// A result document with the envelope already written; the bench adds
/// its own members, then calls write().
class BenchResult : public JsonWriter {
  public:
    explicit BenchResult(const std::string& name) : name_(name)
    {
        str("schema", "cascade.bench.v1").str("bench", name);
    }

    /// Writes BENCH_<name>.json and notes the path on stderr.
    void
    write() const
    {
        const std::string path = "BENCH_" + name_ + ".json";
        std::ofstream(path) << build() << '\n';
        std::fprintf(stderr, "# results -> %s\n", path.c_str());
    }

  private:
    std::string name_;
};

} // namespace cascade::bench

#endif // CASCADE_BENCH_BENCH_RESULT_H
