// The /search body contract: deterministic JSON rendering of search
// outputs.
//
// The HTTP server and the tests share these functions, which is what
// makes "HTTP /search responses are byte-identical to direct
// SodaService::SearchAll output" a checkable property: the test calls
// SearchAll itself, renders with the same function, and compares bytes
// with the wire payload. Determinism therefore rules the field set —
// everything rank-relevant is included (SQL, scores, provenance,
// snippets, complexity, ignored words, per-query errors), while
// serving-history observability (wall times, cache counters, pool
// width) is exiled to X-Soda-* response headers by the server: two
// identical questions must produce identical bodies regardless of the
// cache stripe count, cache state, or thread count that produced them.

#ifndef SODA_NET_SEARCH_JSON_H_
#define SODA_NET_SEARCH_JSON_H_

#include <cstddef>
#include <span>
#include <string>

#include "common/status.h"
#include "core/pipeline.h"
#include "core/service.h"

namespace soda {

/// Renders the response body of POST /search: one element of "outputs"
/// per input query, in input order:
///
///   {"outputs":[{"query":"...","ok":true,"complexity":N,
///     "ignored":["..."],"results":[{"sql":"...","score":S,
///     "explanation":"...","connected":true,"executed":true,
///     "snippet":{"columns":["..."],"rows":[["..."]]}}]},
///    {"query":"...","ok":false,"error":"code: message"}]}
///
/// `queries` and `outputs` must be the same length (the SearchAll
/// contract). Snippet cells render via Value::ToDisplayString; "snippet"
/// is present only on executed results.
std::string RenderSearchResponseJson(
    std::span<const std::string> queries,
    std::span<const Result<SearchOutput>> outputs);

/// One streamed snippet event of the chunked /search?stream=1 endpoint
/// (newline-delimited JSON): {"event":"snippet","query":Q,"result":R,
/// "executed":true,"rows":N}.
std::string RenderSnippetEventJson(size_t query_index, size_t result_index,
                                   const SodaResult& result);

/// The closing summary line of a chunked stream:
/// {"event":"done","snippets":N,"callback_exceptions":M}.
std::string RenderStreamDoneJson(size_t snippets, size_t callback_exceptions);

}  // namespace soda

#endif  // SODA_NET_SEARCH_JSON_H_
