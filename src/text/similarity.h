#ifndef NEBULA_TEXT_SIMILARITY_H_
#define NEBULA_TEXT_SIMILARITY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nebula {

/// Packed-integer trigram set: each trigram of the string padded with
/// "^^" and "$$" (so single characters still produce grams) packed into a
/// uint32 (c0<<16 | c1<<8 | c2), sorted + unique. The metadata scorer's
/// fuzzy matching compares these.
std::vector<uint32_t> TrigramIdSet(std::string_view s);

/// Jaccard similarity over two packed trigram sets from TrigramIdSet, in
/// [0,1]; two empty sets score 1. More robust than edit distance for
/// abbreviation-style matches ("gid" vs "gene id").
double TrigramJaccardIds(const std::vector<uint32_t>& a,
                         const std::vector<uint32_t>& b);

/// Light suffix stemmer (plural / -ing / -ed / -ly). Good enough for
/// matching concept words like "genes" -> "gene"; not a full Porter
/// stemmer by design — over-stemming identifiers would be harmful here.
std::string StemLite(std::string_view lower_word);

}  // namespace nebula

#endif  // NEBULA_TEXT_SIMILARITY_H_
