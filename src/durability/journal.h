#ifndef NEBULA_DURABILITY_JOURNAL_H_
#define NEBULA_DURABILITY_JOURNAL_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "annotation/verification_task.h"
#include "common/status.h"
#include "storage/schema.h"

namespace nebula::durability {

/// One logical mutation inside a commit unit. A single flat struct (kind
/// plus the union of fields) rather than a class hierarchy: the record
/// set is small, closed, and line-serialized.
///
/// Field use per kind:
///   kAnnotation  id, author, text
///   kAttach      annotation, tuple, is_true, weight
///   kDetach      annotation, tuple
///   kPromote     annotation, tuple
///   kTask        task
///   kRejected    id (vid counter after the round), count (auto-rejected)
///   kDecision    id (vid), is_true (accepted)
///   kMetaBlob    text (full MetaSerializer blob)
/// The defaults of `is_true` and `weight` describe a True attachment.
struct JournalRecord {
  enum class Kind {
    kAnnotation,
    kAttach,
    kDetach,
    kPromote,
    kTask,
    kRejected,
    kDecision,
    kMetaBlob,
  };
  Kind kind = Kind::kAnnotation;
  uint64_t id = 0;
  uint64_t annotation = 0;
  TupleId tuple;
  uint64_t count = 0;
  bool is_true = true;
  double weight = 1.0;
  std::string text;
  std::string author;
  VerificationTask task;
};

/// Operation-boundary flags of a commit unit. One engine insert journals
/// two units: stage 0 (kOpStart) and stage 3 (kOpEnd); an expert decision
/// is a single kOpStart|kOpEnd unit; a meta blob carries neither (it is
/// bookkeeping, not an operation). Recovery counts kOpEnd units to report
/// how many operations committed fully, and a trailing kOpStart without
/// its kOpEnd as a partial operation.
inline constexpr uint8_t kOpStart = 1;
inline constexpr uint8_t kOpEnd = 2;

/// The atomic unit of the WAL: either every record of a unit replays or
/// none does (one unit = one framed, checksummed WAL record). The engine
/// appends a unit BEFORE applying its mutations in memory, so memory and
/// disk can never disagree on a committed unit.
struct CommitUnit {
  uint64_t seq = 0;  ///< assigned by Manager::Append; strictly increasing
  uint8_t flags = 0;
  std::vector<JournalRecord> records;
};

/// Text encoding of one unit (the WAL frame's payload): a `u` header line
/// followed by one line per record, fields tab-separated and escaped via
/// annotation/serialize.h's EscapeField. See DESIGN.md §12 for the full
/// record-format table.
std::string EncodeUnit(const CommitUnit& unit);
[[nodiscard]] Result<CommitUnit> DecodeUnit(std::string_view payload);

/// The one line format of a task, shared by the journal's `v` record and
/// each line of a snapshot's `tasks` file: vid, annotation, table id, row,
/// confidence ("%.17g"), state name, then one field per evidence term,
/// tab-separated and escaped. Appends the fields to `out` without a
/// leading or trailing tab.
void AppendTaskFields(const VerificationTask& task, std::string* out);
/// Inverse of AppendTaskFields over a line's split fields: Corruption
/// for fewer than six fields, a malformed number, a table id above
/// UINT32_MAX or an unknown state name.
[[nodiscard]] Result<VerificationTask> ParseTaskFields(
    std::span<const std::string> fields);

/// Parses one decimal integer field of the journal, snapshot and meta
/// text formats: digits only (no sign or space) and within uint64_t, else
/// Corruption.
[[nodiscard]] Result<uint64_t> ParseU64Field(const std::string& field);

/// Parses one number field of the same formats (written with "%.17g"):
/// the whole field, and finite, else Corruption.
[[nodiscard]] Result<double> ParseDoubleField(const std::string& field);

}  // namespace nebula::durability

#endif  // NEBULA_DURABILITY_JOURNAL_H_
