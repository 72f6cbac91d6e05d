// Concurrency-contract enforcement: the static layer of the lock-rank
// DAG (DESIGN.md "Concurrency contracts").
//
// The contract has one source of truth — tools/lock_ranks.txt, a total
// order of integer tiers the acquisition DAG embeds into — and two
// mirrors: the kLockRank* constants in src/common/lock_rank.h that
// mutexes are constructed with, and the runtime lockdep witness that
// validates real acquires. This pass pins the mirrors to the source:
//
//   [lock-rank-missing]  a nebula::Mutex / SharedMutex member or global
//                        in src/ declared without a kLockRank* argument.
//   [lock-rank-unknown]  a kLockRank* constant used but never declared
//                        in a lock_rank.h, or declared with a rank name
//                        or tier the registry does not agree with.
//   [lock-order]         a textually nested MutexLock/WriterMutexLock/
//                        ReaderMutexLock scope — or an ACQUIRED_AFTER /
//                        ACQUIRED_BEFORE attribute edge — that acquires
//                        a rank whose tier is not strictly above every
//                        rank already held; reported with the full
//                        acquisition chain, like [include-cycle].
//   [guarded-coverage]   a trailing-underscore field assigned under a
//                        lock scope whose declaration carries no
//                        GUARDED_BY annotation.
//
// All four rules are never baselinable: the DAG holds everywhere,
// always. The analysis is textual and conservative — a lock argument is
// resolved to a rank only when the trailing identifier names exactly one
// ranked declaration in the file, its paired header, or the whole tree
// (ambiguous names like the many per-class `mutex_` are skipped); a
// field write is reported only when its declaration is found and is
// neither annotated nor atomic. The runtime witness covers what the
// text cannot.

#include "lint.h"

#include <cctype>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>

namespace nebula_lint {

LockRankRegistry LockRankRegistry::Load(const fs::path& path,
                                        std::string* error) {
  LockRankRegistry registry;
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open lock-rank registry " + path.string();
    return registry;
  }
  std::string line;
  int last_tier = -1;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    int tier = 0;
    std::string name;
    if (!(fields >> tier >> name)) continue;  // blank / comment-only line
    std::string extra;
    if (fields >> extra) {
      *error = "lock-rank registry " + path.string() +
               ": trailing tokens after '" + name + "'";
      return registry;
    }
    if (registry.tier_of.count(name) != 0) {
      *error = "rank '" + name + "' appears twice in " + path.string();
      return registry;
    }
    if (tier <= last_tier) {
      *error = "lock-rank registry " + path.string() +
               " is not strictly ascending at rank '" + name + "'";
      return registry;
    }
    last_tier = tier;
    registry.tier_of[name] = tier;
    registry.order.push_back(name);
  }
  if (registry.order.empty()) {
    *error = "lock-rank registry " + path.string() + " declares no ranks";
  }
  return registry;
}

namespace {

/// A kLockRank* constant declared in a lock_rank.h:
///   inline constexpr LockRank kLockRankFoo = {"foo.bar", 40};
struct RankConstant {
  std::string rank_name;  ///< the quoted name, e.g. "common.pool"
  int tier = 0;
  std::string file;  ///< rel of the declaring lock_rank.h
  size_t line = 0;
};

/// A ranked (or unranked) mutex declaration site.
struct MutexDecl {
  std::string member;    ///< declared identifier, e.g. "index_build_mutex_"
  std::string constant;  ///< kLockRank* argument; empty when missing
  size_t line = 0;
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Reads the identifier starting at `pos`, or "" when none starts there.
std::string ReadIdent(const std::string& text, size_t pos) {
  if (pos >= text.size() || !IsIdentStart(text[pos])) return "";
  size_t end = pos;
  while (end < text.size() && IsIdentChar(text[end])) ++end;
  return text.substr(pos, end - pos);
}

size_t SkipSpace(const std::string& text, size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
  return pos;
}

/// Flattened view of a file's lines with offset -> 1-based line lookup.
struct Flat {
  std::string text;
  std::vector<size_t> line_start;  ///< offset each line begins at

  explicit Flat(const std::vector<std::string>& lines) {
    for (const std::string& line : lines) {
      line_start.push_back(text.size());
      text += line;
      text += '\n';
    }
    if (line_start.empty()) line_start.push_back(0);
  }

  size_t LineOf(size_t offset) const {
    size_t lo = 0, hi = line_start.size();
    while (lo + 1 < hi) {
      const size_t mid = (lo + hi) / 2;
      (line_start[mid] <= offset ? lo : hi) = mid;
    }
    return lo + 1;
  }
};

/// Next occurrence of `token` at or after `pos` with identifier
/// boundaries on both sides, or npos.
size_t FindTokenFrom(const std::string& text, const std::string& token,
                     size_t pos) {
  while ((pos = text.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    const size_t end = pos + token.size();
    const bool right_ok = end >= text.size() || !IsIdentChar(text[end]);
    if (left_ok && right_ok) return pos;
    pos = end;
  }
  return std::string::npos;
}

/// First identifier starting with `prefix` (left boundary only), npos
/// when absent — how kLockRank* arguments are found.
size_t FindIdentWithPrefix(const std::string& text, const std::string& prefix) {
  size_t pos = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    if (pos == 0 || !IsIdentChar(text[pos - 1])) return pos;
    pos += prefix.size();
  }
  return std::string::npos;
}

/// The field an expression like `manager->seq_` or `other.mu_` or plain
/// `mu_` names: the trailing identifier.
std::string TrailingIdent(const std::string& expr) {
  size_t end = expr.size();
  while (end > 0 &&
         std::isspace(static_cast<unsigned char>(expr[end - 1])) != 0) {
    --end;
  }
  size_t start = end;
  while (start > 0 && IsIdentChar(expr[start - 1])) --start;
  if (start == end) return "";
  return expr.substr(start, end - start);
}

/// Skip primitive / witness implementation files: sync.h and lockdep.*
/// define the machinery the contract rides on.
bool IsPrimitiveFile(const std::string& rel) {
  return EndsWith(rel, "/sync.h") || EndsWith(rel, "/lockdep.h") ||
         EndsWith(rel, "/lockdep.cc");
}

/// Thread-safety attributes that may sit between a declarator and its
/// initializer; ExtractMutexDecls steps over them.
bool IsDeclAttribute(const std::string& word) {
  return word == "ACQUIRED_AFTER" || word == "ACQUIRED_BEFORE" ||
         word == "GUARDED_BY" || word == "PT_GUARDED_BY" || word == "EXCLUDES";
}

/// Extracts kLockRank* constant declarations from a lock_rank.h. Works
/// on raw lines: the rank name lives in a string literal, which
/// code_lines blanks out.
void ExtractRankConstants(const SourceFile& file,
                          std::vector<RankConstant>* constants,
                          std::map<std::string, size_t>* index_by_ident,
                          Report* report) {
  const Flat flat(file.raw_lines);
  size_t pos = 0;
  while ((pos = FindTokenFrom(flat.text, "LockRank", pos)) !=
         std::string::npos) {
    const size_t at = pos;
    pos += std::strlen("LockRank");
    size_t cursor = SkipSpace(flat.text, pos);
    const std::string ident = ReadIdent(flat.text, cursor);
    if (ident.rfind("kLockRank", 0) != 0) continue;  // the struct, a param...
    cursor = SkipSpace(flat.text, cursor + ident.size());
    if (cursor >= flat.text.size() || flat.text[cursor] != '=') continue;
    cursor = SkipSpace(flat.text, cursor + 1);
    if (cursor >= flat.text.size() || flat.text[cursor] != '{') continue;
    const size_t close = flat.text.find('}', cursor);
    const size_t quote_open = flat.text.find('"', cursor);
    if (close == std::string::npos || quote_open == std::string::npos ||
        quote_open > close) {
      report->Add(file.rel, flat.LineOf(at), "lock-rank-unknown",
                  "cannot parse rank constant '" + ident +
                      "' (expected {\"name\", tier})");
      continue;
    }
    const size_t quote_close = flat.text.find('"', quote_open + 1);
    if (quote_close == std::string::npos || quote_close > close) continue;
    RankConstant constant;
    constant.rank_name =
        flat.text.substr(quote_open + 1, quote_close - quote_open - 1);
    constant.file = file.rel;
    constant.line = flat.LineOf(at);
    const size_t comma = flat.text.find(',', quote_close);
    if (comma == std::string::npos || comma > close) {
      report->Add(file.rel, constant.line, "lock-rank-unknown",
                  "rank constant '" + ident + "' has no tier");
      continue;
    }
    // The tier must be an integer literal; anything else (a named
    // constant, a typo) is reported, never read as 0.
    const size_t first = SkipSpace(flat.text, comma + 1);
    size_t last = close;
    while (last > first &&
           std::isspace(static_cast<unsigned char>(flat.text[last - 1])) != 0) {
      --last;
    }
    const char* tier_end = flat.text.data() + last;
    const auto [parsed_end, ec] =
        std::from_chars(flat.text.data() + first, tier_end, constant.tier);
    if (ec != std::errc() || parsed_end != tier_end) {
      report->Add(file.rel, constant.line, "lock-rank-unknown",
                  "rank constant '" + ident + "' has tier '" +
                      flat.text.substr(first, last - first) +
                      "', not an integer literal");
      continue;
    }
    (*index_by_ident)[ident] = constants->size();
    constants->push_back(std::move(constant));
  }
}

/// Extracts every Mutex / SharedMutex declaration in a file's code
/// lines: `Mutex name_;`, `mutable Mutex name_{kRank};`,
/// `Mutex g_name(kRank);`, with optional thread-safety attributes
/// between the name and the initializer. References, pointers, and
/// parameters are skipped (no identifier directly after the type, or no
/// recognizable terminator).
void ExtractMutexDecls(const Flat& flat, std::vector<MutexDecl>* decls) {
  for (const char* type : {"Mutex", "SharedMutex"}) {
    size_t pos = 0;
    while ((pos = FindTokenFrom(flat.text, type, pos)) != std::string::npos) {
      const size_t at = pos;
      pos += std::strlen(type);
      size_t cursor = SkipSpace(flat.text, pos);
      const std::string name = ReadIdent(flat.text, cursor);
      if (name.empty() || name.rfind("kLockRank", 0) == 0) continue;
      cursor = SkipSpace(flat.text, cursor + name.size());
      // Step over attributes: Mutex a_ ACQUIRED_AFTER(b_){kRank};
      for (;;) {
        const std::string word = ReadIdent(flat.text, cursor);
        if (!IsDeclAttribute(word)) break;
        cursor = SkipSpace(flat.text, cursor + word.size());
        if (cursor < flat.text.size() && flat.text[cursor] == '(') {
          const size_t close = flat.text.find(')', cursor);
          if (close == std::string::npos) break;
          cursor = SkipSpace(flat.text, close + 1);
        }
      }
      if (cursor >= flat.text.size()) continue;
      const char next = flat.text[cursor];
      MutexDecl decl;
      decl.member = name;
      decl.line = flat.LineOf(at);
      if (next == ';') {
        decls->push_back(decl);  // unranked
      } else if (next == '{' || next == '(') {
        const size_t close =
            flat.text.find(next == '{' ? '}' : ')', cursor);
        if (close == std::string::npos) continue;
        const std::string args =
            flat.text.substr(cursor + 1, close - cursor - 1);
        const size_t k = FindIdentWithPrefix(args, "kLockRank");
        if (k != std::string::npos) decl.constant = ReadIdent(args, k);
        decls->push_back(decl);
      }
      // Anything else (&, *, ',', ')') is a reference, pointer, or
      // parameter — not a declaration this pass owns.
    }
  }
}

/// `ACQUIRED_AFTER(a_)` / `ACQUIRED_BEFORE(x_)` attribute edges on a
/// mutex declaration: `Mutex subject_ ACQUIRED_AFTER(a_, b_)...`.
struct AttrEdge {
  std::string before;  ///< member acquired first
  std::string after;   ///< member acquired second
  size_t line = 0;
};

void ExtractAttrEdges(const Flat& flat, std::vector<AttrEdge>* edges) {
  for (const char* attr : {"ACQUIRED_AFTER", "ACQUIRED_BEFORE"}) {
    const bool after_form = std::strcmp(attr, "ACQUIRED_AFTER") == 0;
    size_t pos = 0;
    while ((pos = FindTokenFrom(flat.text, attr, pos)) != std::string::npos) {
      const size_t at = pos;
      const size_t line = flat.LineOf(at);
      pos += std::strlen(attr);
      const size_t open = SkipSpace(flat.text, pos);
      if (open >= flat.text.size() || flat.text[open] != '(') continue;
      const size_t close = flat.text.find(')', open);
      if (close == std::string::npos) continue;
      // The annotated mutex is the declared identifier to the left of
      // the attribute: ... Mutex <name> ACQUIRED_AFTER(<args>);
      const std::string subject = TrailingIdent(flat.text.substr(0, at));
      if (subject.empty()) continue;
      const std::string args = flat.text.substr(open + 1, close - open - 1);
      size_t start = 0;
      while (start <= args.size()) {
        size_t comma = args.find(',', start);
        if (comma == std::string::npos) comma = args.size();
        const std::string arg = TrailingIdent(args.substr(start, comma - start));
        if (!arg.empty()) {
          AttrEdge edge;
          edge.line = line;
          edge.before = after_form ? arg : subject;
          edge.after = after_form ? subject : arg;
          edges->push_back(edge);
        }
        if (comma == args.size()) break;
        start = comma + 1;
      }
    }
  }
}

/// Resolves a member name to its declared rank constant, preferring the
/// narrowest unambiguous scope: this file, then its paired header, then
/// the whole tree. Returns "" when unknown or ambiguous in every scope.
class MemberRanks {
 public:
  void Add(const std::string& rel, const std::string& member,
           const std::string& constant) {
    per_file_[rel][member].insert(constant);
    global_[member].insert(constant);
  }

  std::string Resolve(const std::string& rel,
                      const std::string& member) const {
    const std::string scopes[] = {rel, PairedHeader(rel)};
    for (const std::string& scope : scopes) {
      auto file_it = per_file_.find(scope);
      if (file_it == per_file_.end()) continue;
      auto it = file_it->second.find(member);
      if (it == file_it->second.end()) continue;
      return it->second.size() == 1 ? *it->second.begin() : "";
    }
    auto it = global_.find(member);
    if (it != global_.end() && it->second.size() == 1) {
      return *it->second.begin();
    }
    return "";
  }

 private:
  static std::string PairedHeader(const std::string& rel) {
    const size_t dot = rel.rfind('.');
    if (dot == std::string::npos) return rel;
    return rel.substr(0, dot) + ".h";
  }

  std::map<std::string, std::map<std::string, std::set<std::string>>>
      per_file_;
  std::map<std::string, std::set<std::string>> global_;
};

enum class DeclState { kNotFound, kCovered, kUnannotated };

/// Looks for the declaration of `field` in `flat`: an occurrence whose
/// preceding token is type-ish (an identifier, or a lone '>' / '*' / '&'
/// closing a declarator — "->x_" and ".x_" are member accesses).
/// kCovered when the declaration statement carries GUARDED_BY or is
/// atomic (atomics need no lock to be written safely).
DeclState FindFieldDecl(const Flat& flat, const std::string& field) {
  size_t pos = 0;
  DeclState state = DeclState::kNotFound;
  while ((pos = FindTokenFrom(flat.text, field, pos)) != std::string::npos) {
    const size_t at = pos;
    pos += field.size();
    size_t before = at;
    while (before > 0 && std::isspace(static_cast<unsigned char>(
                             flat.text[before - 1])) != 0) {
      --before;
    }
    if (before == 0) continue;
    const char prev = flat.text[before - 1];
    // An identifier or a template-closing '>' directly before the field
    // is type-ish. '*' and '&' are deliberately NOT: a wrapped
    // expression ("cond && \n  field_ >= x") puts them before a plain
    // use, and a missed pointer-member declaration only makes the rule
    // quieter.
    if (prev == '>' && before >= 2 && flat.text[before - 2] == '-') continue;
    if (!IsIdentChar(prev) && prev != '>') continue;
    // Everything on the line before the field must read like a type:
    // identifiers, ::, template brackets, cv/ref tokens. A '(' or '='
    // or a control-flow keyword means this is an expression
    // ("if (size > capacity_)"), not a declaration.
    const std::string prefix =
        flat.text.substr(flat.line_start[flat.LineOf(at) - 1],
                         at - flat.line_start[flat.LineOf(at) - 1]);
    if (prefix.find_first_not_of(
            "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
            "0123456789_:<>,*& \t") != std::string::npos) {
      continue;
    }
    bool keyword = false;
    for (const char* kw : {"return", "delete", "new", "if", "while", "for",
                           "else", "case", "co_return", "throw"}) {
      if (FindTokenFrom(prefix, kw, 0) != std::string::npos) {
        keyword = true;
        break;
      }
    }
    if (keyword) continue;
    // The declaration statement: its line up to the terminating ';'.
    const size_t semi = flat.text.find(';', at);
    const size_t stmt_start = flat.line_start[flat.LineOf(at) - 1];
    const std::string stmt = flat.text.substr(
        stmt_start,
        (semi == std::string::npos ? flat.text.size() : semi + 1) -
            stmt_start);
    if (stmt.find("GUARDED_BY") != std::string::npos ||
        stmt.find("atomic") != std::string::npos) {
      return DeclState::kCovered;
    }
    state = DeclState::kUnannotated;
  }
  return state;
}

struct HeldLock {
  std::string member;
  std::string rank;  ///< rank name; "" when unresolvable
  int tier = 0;
  int depth = 0;
};

}  // namespace

void RunConcurrencyPass(const SourceTree& tree,
                        const LockRankRegistry& registry, Report* report) {
  // ---- Collect the rank-constant mirror and every mutex declaration.
  std::vector<RankConstant> constants;
  std::map<std::string, size_t> constant_index;
  std::map<std::string, std::vector<MutexDecl>> decls_by_file;
  MemberRanks member_ranks;

  for (const SourceFile& file : tree.files) {
    if (file.rel.rfind("src/", 0) != 0 || IsPrimitiveFile(file.rel)) continue;
    if (EndsWith(file.rel, "/lock_rank.h")) {
      ExtractRankConstants(file, &constants, &constant_index, report);
      continue;
    }
    const Flat flat(file.code_lines);
    std::vector<MutexDecl> decls;
    ExtractMutexDecls(flat, &decls);
    for (const MutexDecl& decl : decls) {
      if (decl.constant.empty()) {
        report->Add(file.rel, decl.line, "lock-rank-missing",
                    "mutex '" + decl.member +
                        "' is declared without a lock rank; construct it "
                        "with a kLockRank* constant from "
                        "common/lock_rank.h (see tools/lock_ranks.txt)");
      } else {
        member_ranks.Add(file.rel, decl.member, decl.constant);
      }
    }
    decls_by_file[file.rel] = std::move(decls);
  }

  // ---- The mirror must agree with the registry.
  for (const RankConstant& constant : constants) {
    auto it = registry.tier_of.find(constant.rank_name);
    if (it == registry.tier_of.end()) {
      report->Add(constant.file, constant.line, "lock-rank-unknown",
                  "rank '" + constant.rank_name +
                      "' is not in the registry (tools/lock_ranks.txt)");
    } else if (it->second != constant.tier) {
      report->Add(constant.file, constant.line, "lock-rank-unknown",
                  "rank '" + constant.rank_name + "' has tier " +
                      std::to_string(constant.tier) + " here but tier " +
                      std::to_string(it->second) +
                      " in the registry (tools/lock_ranks.txt)");
    }
  }

  auto rank_of = [&](const std::string& ident) -> const RankConstant* {
    auto it = constant_index.find(ident);
    return it == constant_index.end() ? nullptr : &constants[it->second];
  };

  // ---- Per-file order and coverage walk.
  std::set<std::string> reported_coverage;  // "<rel>:<field>" dedupe
  for (const SourceFile& file : tree.files) {
    if (file.rel.rfind("src/", 0) != 0 || IsPrimitiveFile(file.rel) ||
        EndsWith(file.rel, "/lock_rank.h")) {
      continue;
    }
    const Flat flat(file.code_lines);

    // Every used rank constant must be declared in a lock_rank.h.
    for (const MutexDecl& decl : decls_by_file[file.rel]) {
      if (!decl.constant.empty() && rank_of(decl.constant) == nullptr) {
        report->Add(file.rel, decl.line, "lock-rank-unknown",
                    "rank constant '" + decl.constant +
                        "' is not declared in common/lock_rank.h");
      }
    }

    // ACQUIRED_AFTER / ACQUIRED_BEFORE edges must point up the DAG.
    std::vector<AttrEdge> edges;
    ExtractAttrEdges(flat, &edges);
    for (const AttrEdge& edge : edges) {
      const std::string before_const =
          member_ranks.Resolve(file.rel, edge.before);
      const std::string after_const =
          member_ranks.Resolve(file.rel, edge.after);
      const RankConstant* before_rank =
          before_const.empty() ? nullptr : rank_of(before_const);
      const RankConstant* after_rank =
          after_const.empty() ? nullptr : rank_of(after_const);
      if (before_rank == nullptr || after_rank == nullptr) continue;
      if (after_rank->tier <= before_rank->tier) {
        report->Add(
            file.rel, edge.line, "lock-order",
            "attribute edge contradicts the rank DAG: '" + edge.before +
                "' (" + before_rank->rank_name + ", tier " +
                std::to_string(before_rank->tier) +
                ") is declared acquired before '" + edge.after + "' (" +
                after_rank->rank_name + ", tier " +
                std::to_string(after_rank->tier) +
                "), but tiers must strictly increase "
                "(tools/lock_ranks.txt)");
      }
    }

    // Scope walk: brace depth + the stack of RAII lock scopes.
    std::vector<HeldLock> held;
    int depth = 0;
    size_t pos = 0;
    while (pos < flat.text.size()) {
      const char c = flat.text[pos];
      if (c == '{') {
        ++depth;
        ++pos;
        continue;
      }
      if (c == '}') {
        --depth;
        while (!held.empty() && held.back().depth > depth) held.pop_back();
        ++pos;
        continue;
      }
      if (!IsIdentStart(c) || (pos > 0 && IsIdentChar(flat.text[pos - 1]))) {
        ++pos;
        continue;
      }
      const std::string word = ReadIdent(flat.text, pos);
      const size_t word_at = pos;
      pos += word.size();
      if (word == "MutexLock" || word == "WriterMutexLock" ||
          word == "ReaderMutexLock") {
        // MutexLock <var>(<expr>); — resolve <expr>'s trailing ident.
        size_t cursor = SkipSpace(flat.text, pos);
        const std::string var = ReadIdent(flat.text, cursor);
        if (var.empty()) continue;
        cursor = SkipSpace(flat.text, cursor + var.size());
        if (cursor >= flat.text.size() || flat.text[cursor] != '(') continue;
        const size_t close = flat.text.find(')', cursor);
        if (close == std::string::npos) continue;
        const std::string member =
            TrailingIdent(flat.text.substr(cursor + 1, close - cursor - 1));
        if (member.empty()) continue;
        HeldLock lock;
        lock.member = member;
        lock.depth = depth;
        const std::string constant = member_ranks.Resolve(file.rel, member);
        const RankConstant* rank =
            constant.empty() ? nullptr : rank_of(constant);
        if (rank != nullptr) {
          lock.rank = rank->rank_name;
          lock.tier = rank->tier;
          // Strictly-increasing-tier rule against the innermost ranked
          // holder; report the whole chain on violation.
          const HeldLock* inner = nullptr;
          for (auto it = held.rbegin(); it != held.rend(); ++it) {
            if (!it->rank.empty()) {
              inner = &*it;
              break;
            }
          }
          if (inner != nullptr && lock.tier <= inner->tier) {
            std::string chain;
            for (const HeldLock& h : held) {
              if (h.rank.empty()) continue;
              chain += h.rank + " (" + std::to_string(h.tier) + ") -> ";
            }
            chain += lock.rank + " (" + std::to_string(lock.tier) + ")";
            report->Add(
                file.rel, flat.LineOf(word_at), "lock-order",
                "acquiring '" + member + "' rank " + lock.rank + " (tier " +
                    std::to_string(lock.tier) + ") while holding " +
                    inner->rank + " (tier " + std::to_string(inner->tier) +
                    "); the rank DAG requires strictly increasing tiers "
                    "(tools/lock_ranks.txt); acquisition chain: " + chain);
          }
        }
        held.push_back(lock);
        pos = close;
        continue;
      }
      // A write to a trailing-underscore field under a lock scope:
      // `x_ = ...`, `x_ += ...`, `++x_`, `x_++`.
      if (held.empty() || word.back() != '_') continue;
      size_t cursor = SkipSpace(flat.text, pos);
      bool is_write = false;
      if (cursor + 1 < flat.text.size()) {
        const char op = flat.text[cursor];
        const char op2 = flat.text[cursor + 1];
        if (op == '=' && op2 != '=') {
          is_write = true;
        } else if (op2 == '=' && (op == '+' || op == '-' || op == '*' ||
                                  op == '/' || op == '|' || op == '&' ||
                                  op == '^')) {
          is_write = true;
        } else if ((op == '+' && op2 == '+') || (op == '-' && op2 == '-')) {
          is_write = true;
        }
      }
      if (!is_write && word_at >= 2) {
        const char p1 = flat.text[word_at - 1];
        const char p2 = flat.text[word_at - 2];
        if ((p1 == '+' && p2 == '+') || (p1 == '-' && p2 == '-')) {
          is_write = true;
        }
      }
      if (!is_write) continue;
      // A declaration on the write line itself ("int local_ = 5;") is a
      // local, not a guarded field.
      {
        size_t before = word_at;
        while (before > 0 && std::isspace(static_cast<unsigned char>(
                                 flat.text[before - 1])) != 0) {
          --before;
        }
        if (before > 0 && IsIdentChar(flat.text[before - 1])) continue;
      }
      if (!reported_coverage.insert(file.rel + ":" + word).second) continue;
      DeclState state = FindFieldDecl(flat, word);
      if (state == DeclState::kNotFound && !file.is_header) {
        const size_t dot = file.rel.rfind('.');
        const SourceFile* header =
            dot == std::string::npos
                ? nullptr
                : tree.Find(file.rel.substr(0, dot) + ".h");
        if (header != nullptr) {
          state = FindFieldDecl(Flat(header->code_lines), word);
        }
      }
      if (state == DeclState::kUnannotated) {
        report->Add(file.rel, flat.LineOf(word_at), "guarded-coverage",
                    "field '" + word +
                        "' is written under a lock scope but its "
                        "declaration has no GUARDED_BY annotation");
      }
    }
  }
}

}  // namespace nebula_lint
