#include "text/lexicon.h"

#include <algorithm>

#include "common/string_util.h"

namespace nebula {

void Lexicon::AddSynonyms(const std::vector<std::string>& words) {
  if (words.empty()) return;
  // Find an existing ring among the words, else open a new one.
  size_t ring = static_cast<size_t>(-1);
  for (const auto& w : words) {
    auto it = ring_of_.find(ToLower(w));
    if (it != ring_of_.end()) {
      ring = it->second;
      break;
    }
  }
  if (ring == static_cast<size_t>(-1)) {
    ring = rings_.size();
    rings_.emplace_back();
  }
  for (const auto& w : words) {
    const std::string lw = ToLower(w);
    auto it = ring_of_.find(lw);
    if (it == ring_of_.end()) {
      ring_of_.emplace(lw, ring);
      rings_[ring].push_back(lw);
    } else if (it->second != ring) {
      // Merge the other ring into this one.
      const size_t other = it->second;
      for (const auto& member : rings_[other]) {
        ring_of_[member] = ring;
        rings_[ring].push_back(member);
      }
      rings_[other].clear();
    }
  }
}

void Lexicon::AddHyponym(const std::string& hyponym,
                         const std::string& hypernym) {
  hypernyms_[ToLower(hyponym)].insert(ToLower(hypernym));
}

bool Lexicon::AreSynonyms(const std::string& a, const std::string& b) const {
  const std::string la = ToLower(a);
  const std::string lb = ToLower(b);
  if (la == lb) return true;
  auto ia = ring_of_.find(la);
  auto ib = ring_of_.find(lb);
  return ia != ring_of_.end() && ib != ring_of_.end() &&
         ia->second == ib->second;
}

bool Lexicon::IsHyponymOf(const std::string& word,
                          const std::string& hypernym) const {
  const std::string target = ToLower(hypernym);
  // BFS over hypernym edges (the graphs here are tiny).
  std::vector<std::string> frontier{ToLower(word)};
  std::unordered_set<std::string> seen(frontier.begin(), frontier.end());
  while (!frontier.empty()) {
    std::vector<std::string> next;
    for (const auto& w : frontier) {
      auto it = hypernyms_.find(w);
      if (it == hypernyms_.end()) continue;
      for (const auto& h : it->second) {
        if (h == target || AreSynonyms(h, target)) return true;
        if (seen.insert(h).second) next.push_back(h);
      }
    }
    frontier = std::move(next);
  }
  return false;
}

size_t Lexicon::RingOf(const std::string& lower_word) const {
  auto it = ring_of_.find(lower_word);
  return it == ring_of_.end() ? kNoRing : it->second;
}

std::vector<std::string> Lexicon::SynonymsOf(const std::string& word) const {
  const std::string lw = ToLower(word);
  auto it = ring_of_.find(lw);
  if (it == ring_of_.end()) return {};
  std::vector<std::string> out;
  for (const auto& member : rings_[it->second]) {
    if (member != lw) out.push_back(member);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Lexicon Lexicon::BuiltinEnglishBio() {
  Lexicon lex;
  // Biological schema vocabulary (the evaluation's Gene/Protein/Publication
  // schema), the role WordNet plays in the paper.
  lex.AddSynonyms({"gene", "locus", "cistron"});
  lex.AddSynonyms({"protein", "polypeptide"});
  lex.AddSynonyms({"publication", "article", "paper", "reference"});
  lex.AddSynonyms({"family", "group", "class"});
  lex.AddSynonyms({"sequence", "seq"});
  lex.AddSynonyms({"length", "size", "len"});
  lex.AddSynonyms({"name", "symbol", "identifier"});
  lex.AddSynonyms({"id", "accession"});
  lex.AddSynonyms({"function", "role", "activity"});
  lex.AddSynonyms({"organism", "species", "taxon"});
  lex.AddSynonyms({"author", "writer"});
  lex.AddSynonyms({"title", "heading"});
  lex.AddSynonyms({"type", "kind", "category"});
  lex.AddSynonyms({"mass", "weight"});
  // Generic English rings that show up in comments.
  lex.AddSynonyms({"correlated", "related", "linked", "associated"});
  lex.AddSynonyms({"experiment", "assay", "trial"});
  lex.AddSynonyms({"result", "outcome", "finding"});
  // Hyponyms.
  lex.AddHyponym("oncogene", "gene");
  lex.AddHyponym("pseudogene", "gene");
  lex.AddHyponym("enzyme", "protein");
  lex.AddHyponym("kinase", "enzyme");
  lex.AddHyponym("receptor", "protein");
  return lex;
}

}  // namespace nebula
