// Differential fuzzing: randomized graphs, patterns, and malformed inputs.
// Optimized backends are compared against the naive reference; parsers
// must reject garbage gracefully (Status, never a crash).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "bench_support/designs.h"
#include "common/random.h"
#include "core/reference_backend.h"
#include "rdf/ntriples.h"
#include "rdf/scan_filter.h"
#include "sparql/sparql.h"

namespace swan {
namespace {

// A random graph that always carries the benchmark vocabulary, so the
// fixed queries are well-defined on it.
rdf::Dataset RandomVocabGraph(uint64_t seed, int triples) {
  Rng rng(seed);
  rdf::Dataset data;
  const std::vector<std::string> properties = {
      "<type>", "<language>", "<origin>",  "<records>", "<Point>",
      "<Encoding>", "<p0>",   "<p1>",      "<p2>",      "<p3>"};
  const std::vector<std::string> objects = {
      "<Text>",
      "<Date>",
      "<language/iso639-2b/fre>",
      "<info:marcorg/DLC>",
      "\"end\"",
      "\"start\"",
      "<enc0>",
      "\"lit0\"",
      "\"lit1\""};
  auto subject = [&](uint64_t i) {
    return "<s" + std::to_string(i) + ">";
  };
  const uint64_t num_subjects = 1 + rng.Uniform(40);
  for (int i = 0; i < triples; ++i) {
    const std::string& p = properties[rng.Uniform(properties.size())];
    std::string o;
    if (p == "<records>" || rng.Chance(0.2)) {
      o = subject(rng.Uniform(num_subjects));  // subject-object overlap
    } else {
      o = objects[rng.Uniform(objects.size())];
    }
    data.Add(subject(rng.Uniform(num_subjects)), p, o);
  }
  // Guarantee the vocabulary resolves even if sampling missed a term.
  data.Add("<conferences>", "<p0>", "\"lit0\"");
  data.Add("<s0>", "<type>", "<Text>");
  data.Add("<s0>", "<language>", "<language/iso639-2b/fre>");
  data.Add("<s0>", "<origin>", "<info:marcorg/DLC>");
  data.Add("<s0>", "<records>", "<s1>");
  data.Add("<s0>", "<Point>", "\"end\"");
  data.Add("<s0>", "<Encoding>", "<enc0>");
  return data;
}

core::QueryContext ContextFor(const rdf::Dataset& data) {
  auto vocab = core::Vocabulary::Resolve(data);
  EXPECT_TRUE(vocab.ok());
  return core::QueryContext(vocab.value(), data.DistinctProperties(),
                            data.dict().size(),
                            data.DistinctProperties().size());
}

class GraphFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GraphFuzzTest, AllBackendsMatchReferenceOnRandomGraphs) {
  const rdf::Dataset data = RandomVocabGraph(GetParam(), 600);
  const core::QueryContext ctx = ContextFor(data);

  core::ReferenceBackend reference(data);
  const auto backends = bench_support::OpenDesigns(data);

  for (core::QueryId id : core::AllQueries()) {
    core::QueryResult expected = reference.Run(id, ctx);
    for (auto& backend : backends) {
      if (!backend->Supports(id)) continue;
      core::QueryResult got = backend->Run(id, ctx);
      EXPECT_TRUE(expected.SameRows(got))
          << backend->name() << " diverges on " << ToString(id) << " (seed "
          << GetParam() << ")";
    }
  }

  // The full query workload must leave every backend audit-clean.
  for (auto& backend : backends) {
    const auto report = backend->Audit(audit::AuditLevel::kFull);
    EXPECT_TRUE(report.ok()) << backend->name() << " (seed " << GetParam()
                             << ")\n" << report.ToString();
  }
}

TEST_P(GraphFuzzTest, RandomPatternsMatchReference) {
  const rdf::Dataset data = RandomVocabGraph(GetParam() + 1000, 400);
  Rng rng(GetParam() * 77 + 5);

  core::ReferenceBackend reference(data);
  const auto backends = bench_support::OpenDesigns(data);

  const uint64_t dict_size = data.dict().size();
  for (int round = 0; round < 40; ++round) {
    rdf::TriplePattern pattern;
    // Mix of real ids and (sometimes) ids that match nothing.
    if (rng.Chance(0.5)) pattern.subject = rng.Uniform(dict_size + 3);
    if (rng.Chance(0.5)) pattern.property = rng.Uniform(dict_size + 3);
    if (rng.Chance(0.5)) pattern.object = rng.Uniform(dict_size + 3);

    auto expected = reference.Match(pattern);
    std::sort(expected.begin(), expected.end());
    for (const auto& backend : backends) {
      auto got = backend->Match(pattern);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected)
          << backend->name() << " on " << pattern.ToString();
    }
  }
}

// One position's random filter, kept beside the ids it was built from so
// the expected rows are computed without rdf::ScanFilter.
struct RandomFilter {
  rdf::ScanFilter filter;
  std::vector<uint64_t> admitted;  // empty + !all = nothing passes
  bool all = true;

  bool Admits(uint64_t id) const {
    return all ||
           std::find(admitted.begin(), admitted.end(), id) != admitted.end();
  }
};

// Always-true half the time; else an IN-list of 1–4 ids (mostly ones the
// position holds, some absent from the store, duplicates included) or an
// id set.
RandomFilter DrawFilter(Rng* rng, uint64_t dict_size,
                        const std::vector<uint64_t>& held) {
  RandomFilter f;
  if (rng->Chance(0.5)) return f;
  f.all = false;
  const uint64_t n = 1 + rng->Uniform(4);
  for (uint64_t i = 0; i < n; ++i) {
    f.admitted.push_back(rng->Chance(0.7) ? held[rng->Uniform(held.size())]
                                          : rng->Uniform(dict_size + 3));
    if (rng->Chance(0.2)) f.admitted.push_back(f.admitted.back());
  }
  if (rng->Chance(0.5)) {
    f.filter = rdf::ScanFilter::In(f.admitted);
  } else {
    rdf::MarkSet set(dict_size + 3);
    set.MarkAll(f.admitted);
    f.filter = rdf::ScanFilter::IdSet(std::move(set));
  }
  return f;
}

// Match(pattern, filter) on every backend that answers Match equals the
// reference's unfiltered Match with the filter applied afterwards, as
// bags, at widths 1, 2 and 8: on fresh stores, then with unmerged inserts
// and deletes (each backend is paired with its own reference, which takes
// the writes the backend accepts).
TEST_P(GraphFuzzTest, FilteredMatchEqualsReferencePostFilter) {
  const rdf::Dataset data = RandomVocabGraph(GetParam() + 2000, 400);
  Rng rng(GetParam() * 31 + 7);

  struct Pair {
    std::unique_ptr<core::Backend> backend;
    std::unique_ptr<core::ReferenceBackend> reference;
  };
  std::vector<Pair> pairs;
  for (auto& backend : bench_support::OpenDesigns(data)) {
    pairs.push_back(
        {std::move(backend), std::make_unique<core::ReferenceBackend>(data)});
  }

  const uint64_t dict_size = data.dict().size();
  std::vector<uint64_t> held[3];
  for (const rdf::Triple& t : data.triples()) {
    held[0].push_back(t.subject);
    held[1].push_back(t.property);
    held[2].push_back(t.object);
  }
  const auto check = [&](const char* state) {
    for (int round = 0; round < 40; ++round) {
      rdf::TriplePattern pattern;
      if (rng.Chance(0.4)) pattern.subject = rng.Uniform(dict_size + 3);
      if (rng.Chance(0.4)) pattern.property = rng.Uniform(dict_size + 3);
      if (rng.Chance(0.4)) pattern.object = rng.Uniform(dict_size + 3);
      const RandomFilter fs = DrawFilter(&rng, dict_size, held[0]);
      const RandomFilter fp = DrawFilter(&rng, dict_size, held[1]);
      const RandomFilter fo = DrawFilter(&rng, dict_size, held[2]);
      const rdf::PatternFilter filter{fs.filter, fp.filter, fo.filter};
      for (Pair& pair : pairs) {
        std::vector<rdf::Triple> expected;
        for (const rdf::Triple& t : pair.reference->Match(pattern)) {
          if (fs.Admits(t.subject) && fp.Admits(t.property) &&
              fo.Admits(t.object)) {
            expected.push_back(t);
          }
        }
        std::sort(expected.begin(), expected.end());
        for (int width : {1, 2, 8}) {
          auto got =
              pair.backend->Match(pattern, filter, exec::ExecContext(width));
          std::sort(got.begin(), got.end());
          EXPECT_EQ(got, expected)
              << pair.backend->name() << " " << state << " width " << width
              << " on " << pattern.ToString() << " (seed " << GetParam()
              << ", round " << round << ")";
        }
      }
    }
  };
  check("fresh");

  // Unmerged writes: inserts of new combinations of existing ids, and
  // deletes of existing triples (the row engines and C-Store refuse some).
  const std::vector<rdf::Triple>& triples = data.triples();
  for (Pair& pair : pairs) {
    Rng writes(GetParam() * 97 + 3);
    for (int w = 0; w < 12; ++w) {
      const bool insert = writes.Chance(0.5);
      rdf::Triple t = triples[writes.Uniform(triples.size())];
      if (insert) t.object = triples[writes.Uniform(triples.size())].subject;
      const Status st =
          insert ? pair.backend->Insert(t) : pair.backend->Delete(t);
      if (st.ok()) {
        ASSERT_TRUE(insert ? pair.reference->Insert(t).ok()
                           : pair.reference->Delete(t).ok())
            << pair.backend->name();
      }
    }
  }
  check("with unmerged writes");
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(ParserFuzzTest, NTriplesNeverCrashesOnGarbage) {
  Rng rng(99);
  const std::string alphabet = "<>\"\\ .#abc\t@^_:/";
  for (int round = 0; round < 2000; ++round) {
    std::string line;
    const uint64_t len = rng.Uniform(40);
    for (uint64_t i = 0; i < len; ++i) {
      line += alphabet[rng.Uniform(alphabet.size())];
    }
    rdf::Dataset data;
    bool added = false;
    // Must return (either status), never abort; the discard is the test.
    // swan-lint: allow(discarded-status)
    (void)rdf::ParseNTriplesLine(line, &data, &added);
  }
}

TEST(ParserFuzzTest, SparqlNeverCrashesOnGarbage) {
  Rng rng(101);
  const std::string alphabet = "SELECT WHERE{}?<>\"*.:#\n\tPREFIX139 ";
  for (int round = 0; round < 2000; ++round) {
    std::string query;
    const uint64_t len = rng.Uniform(80);
    for (uint64_t i = 0; i < len; ++i) {
      query += alphabet[rng.Uniform(alphabet.size())];
    }
    // Either outcome is fine — the property under test is "never a
    // crash", so the status is discarded on purpose.
    // swan-lint: allow(discarded-status)
    (void)sparql::Parse(query);
  }
}

TEST(ParserFuzzTest, SparqlRejectsTruncationsOfValidQuery) {
  const std::string valid =
      "PREFIX ex: <http://e/> SELECT DISTINCT ?a WHERE { ?a ex:p \"v\" . } "
      "LIMIT 3";
  ASSERT_TRUE(sparql::Parse(valid).ok());
  // Every strict prefix must parse-fail or parse to something, without
  // crashing. (Some prefixes are valid queries; most are not.)
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    // swan-lint: allow(discarded-status)
    (void)sparql::Parse(valid.substr(0, cut));
  }
}

TEST(ParserFuzzTest, NTriplesRoundTripsRandomValidGraphs) {
  for (uint64_t seed : {7u, 11u, 23u}) {
    const rdf::Dataset data = RandomVocabGraph(seed, 300);
    std::stringstream buffer;
    WriteNTriples(data, buffer);
    rdf::Dataset parsed;
    uint64_t added = 0;
    auto st = ParseNTriples(buffer, &parsed, &added);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(parsed.size(), data.size());
  }
}

}  // namespace
}  // namespace swan
