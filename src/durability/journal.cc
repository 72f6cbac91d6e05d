#include "durability/journal.h"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "annotation/serialize.h"
#include "annotation/verification_task.h"
#include "common/status.h"
#include "common/string_util.h"
#include "storage/schema.h"

namespace nebula::durability {

Result<uint64_t> ParseU64Field(const std::string& field) {
  const std::optional<uint64_t> v = ParseUint64(field);
  if (!v.has_value()) {
    return Status::Corruption("bad integer field '" + field + "'");
  }
  return *v;
}

Result<double> ParseDoubleField(const std::string& field) {
  const std::optional<double> v = ParseFiniteDouble(field);
  if (!v.has_value()) {
    return Status::Corruption("bad number field '" + field + "'");
  }
  return *v;
}

namespace {

void AppendTuple(std::string* out, const TupleId& tuple) {
  *out += '\t';
  *out += std::to_string(tuple.table_id);
  *out += '\t';
  *out += std::to_string(tuple.row);
}

/// A tuple's table id and row fields; the table id must fit TupleId's
/// 32 bits.
Result<TupleId> ParseTuple(const std::string& table_field,
                           const std::string& row_field) {
  NEBULA_ASSIGN_OR_RETURN(const uint64_t table, ParseU64Field(table_field));
  if (table > UINT32_MAX) {
    return Status::Corruption("table id " + table_field + " out of range");
  }
  NEBULA_ASSIGN_OR_RETURN(const uint64_t row, ParseU64Field(row_field));
  return TupleId{static_cast<uint32_t>(table), row};
}

}  // namespace

void AppendTaskFields(const VerificationTask& task, std::string* out) {
  *out += std::to_string(task.vid);
  *out += '\t';
  *out += std::to_string(task.annotation);
  AppendTuple(out, task.tuple);
  *out += '\t';
  *out += StrFormat("%.17g", task.confidence);
  *out += '\t';
  *out += EscapeField(TaskStateName(task.state));
  for (const std::string& term : task.evidence) {
    *out += '\t';
    *out += EscapeField(term);
  }
}

Result<VerificationTask> ParseTaskFields(std::span<const std::string> fields) {
  if (fields.size() < 6) {
    return Status::Corruption("task record has " +
                              std::to_string(fields.size()) +
                              " fields, wants at least 6");
  }
  VerificationTask task;
  NEBULA_ASSIGN_OR_RETURN(task.vid, ParseU64Field(fields[0]));
  NEBULA_ASSIGN_OR_RETURN(task.annotation, ParseU64Field(fields[1]));
  NEBULA_ASSIGN_OR_RETURN(task.tuple, ParseTuple(fields[2], fields[3]));
  NEBULA_ASSIGN_OR_RETURN(task.confidence, ParseDoubleField(fields[4]));
  NEBULA_ASSIGN_OR_RETURN(task.state,
                          ParseTaskState(UnescapeField(fields[5])));
  for (const std::string& term : fields.subspan(6)) {
    task.evidence.push_back(UnescapeField(term));
  }
  return task;
}

std::string EncodeUnit(const CommitUnit& unit) {
  std::string out = "u\t" + std::to_string(unit.seq) + '\t' +
                    std::to_string(static_cast<unsigned>(unit.flags)) + '\n';
  for (const JournalRecord& r : unit.records) {
    switch (r.kind) {
      case JournalRecord::Kind::kAnnotation:
        out += "a\t" + std::to_string(r.id) + '\t' + EscapeField(r.author) +
               '\t' + EscapeField(r.text);
        break;
      case JournalRecord::Kind::kAttach:
        out += "t\t" + std::to_string(r.annotation);
        AppendTuple(&out, r.tuple);
        out += r.is_true ? "\tT\t" : "\tP\t";
        out += StrFormat("%.17g", r.weight);
        break;
      case JournalRecord::Kind::kDetach:
        out += "d\t" + std::to_string(r.annotation);
        AppendTuple(&out, r.tuple);
        break;
      case JournalRecord::Kind::kPromote:
        out += "p\t" + std::to_string(r.annotation);
        AppendTuple(&out, r.tuple);
        break;
      case JournalRecord::Kind::kTask:
        out += "v\t";
        AppendTaskFields(r.task, &out);
        break;
      case JournalRecord::Kind::kRejected:
        out += "r\t" + std::to_string(r.id) + '\t' + std::to_string(r.count);
        break;
      case JournalRecord::Kind::kDecision:
        out += "x\t" + std::to_string(r.id) + (r.is_true ? "\t1" : "\t0");
        break;
      case JournalRecord::Kind::kMetaBlob:
        out += "m\t" + EscapeField(r.text);
        break;
    }
    out += '\n';
  }
  return out;
}

Result<CommitUnit> DecodeUnit(std::string_view payload) {
  const std::vector<std::string> lines = Split(std::string(payload), '\n');
  if (lines.empty()) return Status::Corruption("empty commit unit");

  CommitUnit unit;
  {
    const auto header = Split(lines[0], '\t');
    if (header.size() != 3 || header[0] != "u") {
      return Status::Corruption("bad commit unit header '" + lines[0] + "'");
    }
    NEBULA_ASSIGN_OR_RETURN(unit.seq, ParseU64Field(header[1]));
    NEBULA_ASSIGN_OR_RETURN(const uint64_t flags, ParseU64Field(header[2]));
    if (flags > (kOpStart | kOpEnd)) {
      return Status::Corruption("bad commit unit flags " + header[2]);
    }
    unit.flags = static_cast<uint8_t>(flags);
  }

  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;  // trailing newline of the payload
    const auto fields = Split(lines[i], '\t');
    JournalRecord record;
    const std::string& tag = fields[0];
    if (tag == "a" && fields.size() == 4) {
      record.kind = JournalRecord::Kind::kAnnotation;
      NEBULA_ASSIGN_OR_RETURN(record.id, ParseU64Field(fields[1]));
      record.author = UnescapeField(fields[2]);
      record.text = UnescapeField(fields[3]);
    } else if (tag == "t" && fields.size() == 6) {
      record.kind = JournalRecord::Kind::kAttach;
      NEBULA_ASSIGN_OR_RETURN(record.annotation, ParseU64Field(fields[1]));
      NEBULA_ASSIGN_OR_RETURN(record.tuple, ParseTuple(fields[2], fields[3]));
      if (fields[4] != "T" && fields[4] != "P") {
        return Status::Corruption("bad attachment type '" + fields[4] + "'");
      }
      record.is_true = fields[4] == "T";
      NEBULA_ASSIGN_OR_RETURN(record.weight, ParseDoubleField(fields[5]));
    } else if ((tag == "d" || tag == "p") && fields.size() == 4) {
      record.kind = tag == "d" ? JournalRecord::Kind::kDetach
                               : JournalRecord::Kind::kPromote;
      NEBULA_ASSIGN_OR_RETURN(record.annotation, ParseU64Field(fields[1]));
      NEBULA_ASSIGN_OR_RETURN(record.tuple, ParseTuple(fields[2], fields[3]));
    } else if (tag == "v") {
      record.kind = JournalRecord::Kind::kTask;
      NEBULA_ASSIGN_OR_RETURN(record.task,
                              ParseTaskFields(std::span(fields).subspan(1)));
    } else if (tag == "r" && fields.size() == 3) {
      record.kind = JournalRecord::Kind::kRejected;
      NEBULA_ASSIGN_OR_RETURN(record.id, ParseU64Field(fields[1]));
      NEBULA_ASSIGN_OR_RETURN(record.count, ParseU64Field(fields[2]));
    } else if (tag == "x" && fields.size() == 3) {
      record.kind = JournalRecord::Kind::kDecision;
      NEBULA_ASSIGN_OR_RETURN(record.id, ParseU64Field(fields[1]));
      if (fields[2] != "0" && fields[2] != "1") {
        return Status::Corruption("bad decision verdict '" + fields[2] + "'");
      }
      record.is_true = fields[2] == "1";
    } else if (tag == "m" && fields.size() == 2) {
      record.kind = JournalRecord::Kind::kMetaBlob;
      record.text = UnescapeField(fields[1]);
    } else {
      return Status::Corruption("bad journal record line '" + lines[i] + "'");
    }
    unit.records.push_back(std::move(record));
  }
  return unit;
}

}  // namespace nebula::durability
