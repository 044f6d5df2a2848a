#include "net/search_json.h"

#include "net/json.h"
#include "sql/result_set.h"
#include "sql/value.h"

namespace soda {

namespace {

void AppendResultJson(std::string* out, const SodaResult& result) {
  out->append("{\"sql\":");
  AppendJsonQuoted(out, result.sql);
  out->append(",\"score\":");
  AppendJsonNumber(out, result.score);
  out->append(",\"explanation\":");
  AppendJsonQuoted(out, result.explanation);
  out->append(",\"connected\":");
  out->append(result.fully_connected ? "true" : "false");
  out->append(",\"executed\":");
  out->append(result.executed ? "true" : "false");
  if (result.executed) {
    out->append(",\"snippet\":{\"columns\":[");
    for (size_t c = 0; c < result.snippet.column_names.size(); ++c) {
      if (c > 0) out->push_back(',');
      AppendJsonQuoted(out, result.snippet.column_names[c]);
    }
    out->append("],\"rows\":[");
    for (size_t r = 0; r < result.snippet.rows.size(); ++r) {
      if (r > 0) out->push_back(',');
      out->push_back('[');
      const std::vector<Value>& row = result.snippet.rows[r];
      for (size_t c = 0; c < row.size(); ++c) {
        if (c > 0) out->push_back(',');
        AppendJsonQuoted(out, row[c].ToDisplayString());
      }
      out->push_back(']');
    }
    out->append("]}");
  } else if (!result.execution_status.ok()) {
    out->append(",\"execution_error\":");
    AppendJsonQuoted(out, result.execution_status.ToString());
  }
  out->push_back('}');
}

void AppendOutputJson(std::string* out, const std::string& query,
                      const Result<SearchOutput>& output) {
  out->append("{\"query\":");
  AppendJsonQuoted(out, query);
  if (!output.ok()) {
    // Partial-batch serving: the failed query carries a structured error
    // object; its siblings in the same response are untouched. "code" is
    // the machine key — "unavailable" marks a transient fault (a
    // contained task exception) worth retrying, unlike e.g.
    // "invalid_argument".
    out->append(",\"ok\":false,\"error\":");
    AppendJsonQuoted(out, output.status().ToString());
    out->append(",\"code\":");
    AppendJsonQuoted(out, StatusCodeName(output.status().code()));
    out->push_back('}');
    return;
  }
  out->append(",\"ok\":true,\"complexity\":");
  AppendJsonNumber(out, static_cast<double>(output->complexity));
  out->append(",\"ignored\":[");
  for (size_t i = 0; i < output->ignored_words.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendJsonQuoted(out, output->ignored_words[i]);
  }
  out->append("],\"results\":[");
  for (size_t i = 0; i < output->results.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendResultJson(out, output->results[i]);
  }
  out->append("]}");
}

}  // namespace

std::string RenderSearchResponseJson(
    std::span<const std::string> queries,
    std::span<const Result<SearchOutput>> outputs) {
  std::string out = "{\"outputs\":[";
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendOutputJson(&out, i < queries.size() ? queries[i] : std::string(),
                     outputs[i]);
  }
  out.append("]}\n");
  return out;
}

std::string RenderSnippetEventJson(size_t query_index, size_t result_index,
                                   const SodaResult& result) {
  std::string out = "{\"event\":\"snippet\",\"query\":";
  AppendJsonNumber(&out, static_cast<double>(query_index));
  out.append(",\"result\":");
  AppendJsonNumber(&out, static_cast<double>(result_index));
  out.append(",\"executed\":");
  out.append(result.executed ? "true" : "false");
  out.append(",\"rows\":");
  AppendJsonNumber(&out, static_cast<double>(result.snippet.rows.size()));
  out.append("}\n");
  return out;
}

std::string RenderStreamDoneJson(size_t snippets, size_t callback_exceptions) {
  std::string out = "{\"event\":\"done\",\"snippets\":";
  AppendJsonNumber(&out, static_cast<double>(snippets));
  out.append(",\"callback_exceptions\":");
  AppendJsonNumber(&out, static_cast<double>(callback_exceptions));
  out.append("}\n");
  return out;
}

}  // namespace soda
