#ifndef SWANDB_RDF_PATTERN_H_
#define SWANDB_RDF_PATTERN_H_

#include <cstdint>
#include <optional>
#include <string>

#include "rdf/triple.h"

namespace swan::rdf {

// A simple triple query pattern (s, p, o) where each component is either a
// bound constant or a variable (nullopt). Covers all 8 combinations p1–p8
// of the paper's Figure 2.
struct TriplePattern {
  std::optional<uint64_t> subject;
  std::optional<uint64_t> property;
  std::optional<uint64_t> object;

  bool Matches(const Triple& t) const {
    return (!subject || *subject == t.subject) &&
           (!property || *property == t.property) &&
           (!object || *object == t.object);
  }

  // The paper's pattern number 1..8 (Figure 2, left table):
  //   p1 (s,p,o)   p2 (?s,p,o)  p3 (s,?p,o)  p4 (s,p,?o)
  //   p5 (?s,?p,o) p6 (s,?p,?o) p7 (?s,p,?o) p8 (?s,?p,?o)
  int PatternNumber() const;

  // e.g. "(?s, p, o)".
  std::string ToString() const;
};

// The three join patterns of Figure 2 (right table): A joins the subjects
// of two triples, B joins their objects, C joins one triple's object to
// the other's subject.
enum class JoinPattern { kA, kB, kC };

std::string ToString(JoinPattern pattern);

// Which components of two patterns a join equality connects, generalizing
// A/B/C to all 3x3 possibilities (s=p' etc. appear in RDF/S reasoning,
// §2.2).
enum class TripleComponent { kSubject, kProperty, kObject };

struct JoinCondition {
  TripleComponent left;
  TripleComponent right;
};

// Classifies a join condition into the paper's A/B/C taxonomy when it
// falls inside it (S=S' -> A, O=O' -> B, O=S' or S=O' -> C); conditions
// touching a property slot return nullopt.
std::optional<JoinPattern> Classify(const JoinCondition& condition);

}  // namespace swan::rdf

#endif  // SWANDB_RDF_PATTERN_H_
