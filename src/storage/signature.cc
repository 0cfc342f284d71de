#include "storage/signature.h"

#include "util/check.h"

namespace gsi {
namespace {

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

uint32_t SignatureGroupOf(Label edge_label, Label neighbor_label,
                          int nbits) {
  uint32_t num_groups = static_cast<uint32_t>((nbits - kVertexLabelBits) / 2);
  uint64_t key = (static_cast<uint64_t>(edge_label) << 32) | neighbor_label;
  return static_cast<uint32_t>(Mix64(key) % num_groups);
}

Signature Signature::Encode(const Graph& g, VertexId v, int nbits) {
  GSI_CHECK(nbits > kVertexLabelBits && nbits <= kMaxSignatureBits &&
            nbits % 32 == 0);
  Signature s;
  s.words_[0] = g.vertex_label(v);
  for (const Neighbor& n : g.neighbors(v)) {
    uint32_t group = SignatureGroupOf(n.elabel, g.vertex_label(n.v), nbits);
    // Two bits per group, 16 groups per word, starting at word 1.
    int word = 1 + static_cast<int>(group / 16);
    int shift = static_cast<int>(group % 16) * 2;
    uint32_t state = (s.words_[word] >> shift) & 0x3u;
    // 00 -> 01 (single pair), 01/11 -> 11 (more than one pair).
    uint32_t next = (state == 0) ? 0x1u : 0x3u;
    s.words_[word] =
        (s.words_[word] & ~(0x3u << shift)) | (next << shift);
  }
  return s;
}

std::vector<Signature> Signature::EncodeAll(const Graph& g, int nbits) {
  std::vector<Signature> sigs;
  sigs.reserve(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    sigs.push_back(Encode(g, v, nbits));
  }
  return sigs;
}

bool Signature::Covers(const Signature& query) const {
  if (words_[0] != query.words_[0]) return false;
  for (int i = 1; i < kSignatureWords; ++i) {
    if ((words_[i] & query.words_[i]) != query.words_[i]) return false;
  }
  return true;
}

}  // namespace gsi
