#ifndef GSI_STORAGE_SIGNATURE_H_
#define GSI_STORAGE_SIGNATURE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/common.h"

namespace gsi {

/// Maximum signature width in bits (the paper's N=512 default; Section
/// VII-B shows the table is several GB beyond that).
inline constexpr int kMaxSignatureBits = 512;
/// Bits reserved for the raw vertex label (K=32; the label is stored
/// verbatim so the first filter iteration is an exact label comparison).
inline constexpr int kVertexLabelBits = 32;
inline constexpr int kSignatureWords = kMaxSignatureBits / 32;

/// Length-N bitvector signature S(v) of a vertex's neighbourhood structure
/// (Section III-A):
///  - word 0: the raw vertex label (K = 32 bits);
///  - remaining (N-32)/2 two-bit groups, one state per hashed
///    (edge label, neighbour label) pair: 00 none, 01 exactly one, 11 many.
///
/// If S(v) & S(u) != S(u) then v cannot match u. Narrower widths (Table V's
/// N sweep) zero the unused tail words.
class Signature {
 public:
  Signature() { words_.fill(0); }

  /// Encodes vertex v of g using an nbits-wide signature (32 < nbits <= 512,
  /// divisible by 32).
  static Signature Encode(const Graph& g, VertexId v, int nbits);
  /// Encodes every vertex of g (a query's signatures, indexed by vertex id).
  static std::vector<Signature> EncodeAll(const Graph& g, int nbits);

  /// True iff this (data-vertex) signature is compatible with the query
  /// signature: equal vertex label and two-bit groups that dominate the
  /// query's ("bitwise AND" test of Section III-A).
  bool Covers(const Signature& query) const;

  uint32_t word(int i) const { return words_[i]; }
  void set_word(int i, uint32_t w) { words_[i] = w; }

  Label vertex_label() const { return words_[0]; }

  /// Number of 32-bit words a width-nbits signature occupies.
  static int WordsFor(int nbits) { return nbits / 32; }

  friend bool operator==(const Signature&, const Signature&) = default;

 private:
  std::array<uint32_t, kSignatureWords> words_;
};

/// The hash group index in [0, (nbits-32)/2) for an (edge label, neighbour
/// label) pair. Exposed for tests.
uint32_t SignatureGroupOf(Label edge_label, Label neighbor_label, int nbits);

}  // namespace gsi

#endif  // GSI_STORAGE_SIGNATURE_H_
