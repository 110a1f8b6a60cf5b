// Ablation: join strategy for the object-object join of q8 on the column
// engine. The paper notes that "since the data is not clustered on
// objects, a query which joins on objects will not allow the use of a fast
// (linear) merge join" (section 4.2). This ablation quantifies the gap
// between (a) the dense-mark probe the backends use, (b) a sort-then-merge
// join that first sorts the object column, and (c) a generic hash join.

#include <algorithm>
#include <cstdio>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "colstore/ops.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/col_backends.h"

namespace {

using swan::colstore::MarkSet;
using swan::colstore::SortDistinct;

// Strategy (a): dense-mark probe over the unsorted object column.
std::vector<uint64_t> MarkProbe(const std::vector<uint64_t>& subjects,
                                const std::vector<uint64_t>& objects,
                                const std::vector<uint64_t>& t,
                                uint64_t conferences, uint64_t dict_size) {
  MarkSet marks(dict_size);
  marks.MarkAll(t);
  std::vector<uint64_t> out;
  for (size_t i = 0; i < objects.size(); ++i) {
    if (subjects[i] != conferences && marks.Test(objects[i])) {
      out.push_back(subjects[i]);
    }
  }
  return SortDistinct(std::move(out));
}

// Strategy (b): sort (object, subject) pairs, then linear merge with t.
std::vector<uint64_t> SortMerge(const std::vector<uint64_t>& subjects,
                                const std::vector<uint64_t>& objects,
                                const std::vector<uint64_t>& t,
                                uint64_t conferences) {
  std::vector<std::pair<uint64_t, uint64_t>> pairs(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    pairs[i] = {objects[i], subjects[i]};
  }
  std::sort(pairs.begin(), pairs.end());
  std::vector<uint64_t> out;
  size_t i = 0, j = 0;
  while (i < pairs.size() && j < t.size()) {
    if (pairs[i].first < t[j]) {
      ++i;
    } else if (t[j] < pairs[i].first) {
      ++j;
    } else {
      if (pairs[i].second != conferences) out.push_back(pairs[i].second);
      ++i;
    }
  }
  return SortDistinct(std::move(out));
}

// Strategy (c): generic hash-set probe (what a row store would do).
std::vector<uint64_t> HashProbe(const std::vector<uint64_t>& subjects,
                                const std::vector<uint64_t>& objects,
                                const std::vector<uint64_t>& t,
                                uint64_t conferences) {
  std::unordered_set<uint64_t> set(t.begin(), t.end());
  std::vector<uint64_t> out;
  for (size_t i = 0; i < objects.size(); ++i) {
    if (subjects[i] != conferences && set.count(objects[i]) != 0) {
      out.push_back(subjects[i]);
    }
  }
  return SortDistinct(std::move(out));
}

}  // namespace

int main() {
  using swan::TablePrinter;
  const auto config = swan::bench::DefaultConfig();
  swan::bench::PrintHeader("Ablation: q8 object-object join strategy",
                           "section 4.2 discussion (join pattern B)", config);

  const auto barton = swan::bench_support::GenerateBarton(config);
  const auto ctx = swan::bench_support::MakeBartonContext(barton.dataset, 28);
  swan::core::ColTripleBackend backend(barton.dataset,
                                       swan::rdf::TripleOrder::kPSO);
  // The strategies compare on the decoded columns.
  const std::vector<uint64_t> subjects =
      backend.table().encoded_subjects().Materialize();
  const std::vector<uint64_t> objects =
      backend.table().encoded_objects().Materialize();
  const uint64_t conferences = ctx.vocab().conferences;

  // t = objects of the conferences subject.
  std::vector<uint64_t> t;
  for (size_t i = 0; i < subjects.size(); ++i) {
    if (subjects[i] == conferences) t.push_back(objects[i]);
  }
  t = SortDistinct(std::move(t));

  TablePrinter table({"strategy", "hot time (s)", "result rows"});
  auto measure = [&](const char* name, auto&& strategy) {
    strategy();  // warm-up
    swan::CpuTimer timer;
    const auto result = strategy();
    table.AddRow({name, TablePrinter::Fixed(timer.ElapsedSeconds(), 4),
                  TablePrinter::Int(result.size())});
    return result;
  };

  const auto a = measure("dense-mark probe (column engine)", [&] {
    return MarkProbe(subjects, objects, t, conferences, ctx.dict_size());
  });
  const auto b = measure("sort + linear merge join", [&] {
    return SortMerge(subjects, objects, t, conferences);
  });
  const auto c = measure("generic hash probe (row engine)", [&] {
    return HashProbe(subjects, objects, t, conferences);
  });
  if (a != b || a != c) {
    std::fprintf(stderr, "strategies disagree!\n");
    return 1;
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "expected shape: with no object clustering a merge join must first "
      "sort the\nobject column, making it the slowest; the dense-mark probe "
      "exploits dictionary\nids and wins; the hash probe sits in between — "
      "confirming the paper's point\nthat q8 cannot use the vertical "
      "scheme's fast linear merge joins.\n");
  return 0;
}
