#ifndef NEBULA_TEXT_LEXICON_H_
#define NEBULA_TEXT_LEXICON_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace nebula {

/// A small lexical/semantic knowledge base — Nebula's stand-in for WordNet.
///
/// It stores symmetric synonym rings and directed hyponym (is-a) edges.
/// The metadata layer consults it when scoring whether an annotation word
/// could be referencing a schema concept ("locus" ~ "gene").
class Lexicon {
 public:
  Lexicon() = default;

  /// Declares that all `words` are mutual synonyms (transitively merged
  /// with any ring a word already belongs to). Words are stored lower-cased.
  void AddSynonyms(const std::vector<std::string>& words);

  /// Declares `hyponym` is-a `hypernym` ("oncogene" is-a "gene").
  void AddHyponym(const std::string& hyponym, const std::string& hypernym);

  /// True when the two words share a synonym ring (or are equal).
  bool AreSynonyms(const std::string& a, const std::string& b) const;

  /// True when `word` is a (transitive) hyponym of `hypernym`.
  bool IsHyponymOf(const std::string& word, const std::string& hypernym) const;

  /// All synonyms of `word` (excluding itself); empty when unknown.
  std::vector<std::string> SynonymsOf(const std::string& word) const;

  /// Ring id RingOf returns for a word in no synonym ring.
  static constexpr size_t kNoRing = static_cast<size_t>(-1);

  /// Synonym ring of an already lower-cased word, or kNoRing. Two
  /// distinct lower-cased words are synonyms exactly when their rings are
  /// equal and not kNoRing.
  size_t RingOf(const std::string& lower_word) const;

  /// True when the lexicon lists a hypernym of an already lower-cased
  /// word; IsHyponymOf is false for every other word.
  bool HasHypernyms(const std::string& lower_word) const {
    return hypernyms_.count(lower_word) > 0;
  }

  size_t num_words() const { return ring_of_.size(); }

  /// Builds the default lexicon shipped with Nebula: generic English
  /// synonym rings plus the biological vocabulary used by the UniProt-like
  /// evaluation schema.
  static Lexicon BuiltinEnglishBio();

 private:
  // Union of synonym rings: word -> ring id; ring id -> member list.
  std::unordered_map<std::string, size_t> ring_of_;
  std::vector<std::vector<std::string>> rings_;
  std::unordered_map<std::string, std::unordered_set<std::string>> hypernyms_;
};

}  // namespace nebula

#endif  // NEBULA_TEXT_LEXICON_H_
