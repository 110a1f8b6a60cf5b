// Oracle test: the 12 benchmark queries on a tiny hand-built graph whose
// answers were derived by hand from the SQL in the paper's appendix. Every
// backend must return exactly these rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_support/designs.h"
#include "core/query.h"
#include "core/reference_backend.h"
#include "rdf/dataset.h"

namespace swan {
namespace {

using core::QueryContext;
using core::QueryId;
using core::QueryResult;

class QuerySemanticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Vocabulary property/object spellings must match VocabularyNames.
    const char* kType = "<type>";
    const char* kLanguage = "<language>";
    const char* kOrigin = "<origin>";
    const char* kRecords = "<records>";
    const char* kPoint = "<Point>";
    const char* kEncoding = "<Encoding>";
    const char* kText = "<Text>";
    const char* kDate = "<Date>";
    const char* kFre = "<language/iso639-2b/fre>";
    const char* kEng = "<language/iso639-2b/eng>";
    const char* kDlc = "<info:marcorg/DLC>";
    const char* kEnd = "\"end\"";
    const char* kConf = "<conferences>";

    data_.Add("<s1>", kType, kText);
    data_.Add("<s1>", kLanguage, kFre);
    data_.Add("<s1>", kOrigin, kDlc);
    data_.Add("<s1>", kRecords, "<s2>");
    data_.Add("<s1>", kPoint, kEnd);
    data_.Add("<s1>", kEncoding, "<enc1>");
    data_.Add("<s2>", kType, kDate);
    data_.Add("<s3>", kType, kText);
    data_.Add("<s3>", kLanguage, kFre);
    data_.Add("<s4>", kType, kText);
    data_.Add("<s4>", kLanguage, kEng);
    data_.Add("<s4>", kPoint, kEnd);
    data_.Add("<s4>", kEncoding, "<enc2>");
    data_.Add("<s4>", kEncoding, "<enc1>");
    data_.Add("<s4>", kRecords, "<s5>");
    data_.Add("<s5>", kType, kText);
    data_.Add("<s6>", kType, kDate);
    data_.Add("<s6>", kOrigin, kDlc);
    data_.Add("<s6>", kRecords, "<s2>");
    data_.Add(kConf, "<p_a>", "\"x\"");
    data_.Add(kConf, "<p_b>", "\"y\"");
    data_.Add("<s2>", "<p_a>", "\"x\"");
    data_.Add("<s3>", "<p_b>", "\"y\"");
    data_.Add("<s1>", "<p_a>", "\"z\"");
  }

  uint64_t Id(const std::string& term) const {
    auto id = data_.dict().Find(term);
    EXPECT_TRUE(id.has_value()) << "missing term " << term;
    return id.value_or(0);
  }

  QueryContext AllPropertiesContext() const {
    auto vocab = core::Vocabulary::Resolve(data_);
    EXPECT_TRUE(vocab.ok());
    return QueryContext(vocab.value(), data_.DistinctProperties(),
                        data_.dict().size(),
                        data_.DistinctProperties().size());
  }

  QueryContext RestrictedContext(const std::vector<std::string>& props) const {
    auto vocab = core::Vocabulary::Resolve(data_);
    EXPECT_TRUE(vocab.ok());
    std::vector<uint64_t> ids;
    for (const auto& p : props) ids.push_back(Id(p));
    return QueryContext(vocab.value(), ids, data_.dict().size(),
                        data_.DistinctProperties().size());
  }

  // Every design of the list and the reference. C-Store, the one design
  // without all 12 queries, only when asked for.
  std::vector<std::unique_ptr<core::Backend>> AllBackends(
      bool include_cstore) const {
    auto backends = bench_support::OpenDesigns(
        data_, {.all_queries = !include_cstore});
    backends.push_back(std::make_unique<core::ReferenceBackend>(data_));
    return backends;
  }

  void ExpectRows(QueryId id, const QueryContext& ctx,
                  std::vector<std::vector<uint64_t>> expected) {
    std::sort(expected.begin(), expected.end());
    // C-Store's property set is fixed at load time, so it is only
    // comparable when the restriction covers all properties (as in the
    // real benchmark, where the 28 include every queried property).
    for (const auto& backend : AllBackends(ctx.FilterCoversAll())) {
      if (!backend->Supports(id)) continue;
      QueryResult result = backend->Run(id, ctx);
      result.Normalize();
      EXPECT_EQ(result.rows, expected)
          << backend->name() << " on " << core::ToString(id);
    }
  }

  rdf::Dataset data_;
};

TEST_F(QuerySemanticsTest, Q1GroupsTypeObjects) {
  ExpectRows(QueryId::kQ1, AllPropertiesContext(),
             {{Id("<Text>"), 4}, {Id("<Date>"), 2}});
}

TEST_F(QuerySemanticsTest, Q2StarCountsAllProperties) {
  ExpectRows(QueryId::kQ2Star, AllPropertiesContext(),
             {{Id("<type>"), 4},
              {Id("<language>"), 3},
              {Id("<origin>"), 1},
              {Id("<records>"), 2},
              {Id("<Point>"), 2},
              {Id("<Encoding>"), 3},
              {Id("<p_a>"), 1},
              {Id("<p_b>"), 1}});
}

TEST_F(QuerySemanticsTest, Q2RestrictedFiltersProperties) {
  ExpectRows(QueryId::kQ2, RestrictedContext({"<type>", "<language>"}),
             {{Id("<type>"), 4}, {Id("<language>"), 3}});
}

TEST_F(QuerySemanticsTest, Q3StarKeepsGroupsAboveOne) {
  ExpectRows(QueryId::kQ3Star, AllPropertiesContext(),
             {{Id("<type>"), Id("<Text>"), 4},
              {Id("<language>"), Id("<language/iso639-2b/fre>"), 2},
              {Id("<Encoding>"), Id("<enc1>"), 2},
              {Id("<Point>"), Id("\"end\""), 2}});
}

TEST_F(QuerySemanticsTest, Q4StarIntersectsLanguage) {
  ExpectRows(QueryId::kQ4Star, AllPropertiesContext(),
             {{Id("<type>"), Id("<Text>"), 2},
              {Id("<language>"), Id("<language/iso639-2b/fre>"), 2}});
}

TEST_F(QuerySemanticsTest, Q5FollowsRecordsToNonTextTypes) {
  ExpectRows(QueryId::kQ5, AllPropertiesContext(),
             {{Id("<s1>"), Id("<Date>")}, {Id("<s6>"), Id("<Date>")}});
}

TEST_F(QuerySemanticsTest, Q6StarMatchesQ2StarOnThisGraph) {
  // The records-reachable Text subjects are already Text-typed here, so
  // the union adds nothing and q6* == q2*.
  ExpectRows(QueryId::kQ6Star, AllPropertiesContext(),
             {{Id("<type>"), 4},
              {Id("<language>"), 3},
              {Id("<origin>"), 1},
              {Id("<records>"), 2},
              {Id("<Point>"), 2},
              {Id("<Encoding>"), 3},
              {Id("<p_a>"), 1},
              {Id("<p_b>"), 1}});
}

TEST_F(QuerySemanticsTest, Q7CrossProductsEncodingAndType) {
  ExpectRows(QueryId::kQ7, AllPropertiesContext(),
             {{Id("<s1>"), Id("<enc1>"), Id("<Text>")},
              {Id("<s4>"), Id("<enc2>"), Id("<Text>")},
              {Id("<s4>"), Id("<enc1>"), Id("<Text>")}});
}

TEST_F(QuerySemanticsTest, Q8FindsSubjectsSharingConferenceObjects) {
  ExpectRows(QueryId::kQ8, AllPropertiesContext(),
             {{Id("<s2>")}, {Id("<s3>")}});
}

TEST_F(QuerySemanticsTest, RestrictedQ6CountsOnlyListedProperties) {
  ExpectRows(QueryId::kQ6, RestrictedContext({"<Encoding>", "<records>"}),
             {{Id("<Encoding>"), 3}, {Id("<records>"), 2}});
}

TEST_F(QuerySemanticsTest, RestrictedQ3DropsUnlistedGroups) {
  ExpectRows(QueryId::kQ3, RestrictedContext({"<Point>", "<p_a>"}),
             {{Id("<Point>"), Id("\"end\""), 2}});
}

TEST_F(QuerySemanticsTest, RestrictedQ4KeepsLanguageGroupOnlyIfListed) {
  ExpectRows(QueryId::kQ4, RestrictedContext({"<type>"}),
             {{Id("<type>"), Id("<Text>"), 2}});
}

}  // namespace
}  // namespace swan
