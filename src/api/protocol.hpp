/**
 * @file
 * The versioned hpe_serve wire envelope, shared by the daemon, the
 * `submit` client, and the load bench (see docs/api.md § "Wire
 * protocol v2").
 *
 * Every request names its protocol version with a top-level `"v": 2`;
 * responses echo it, and failures carry one structured error object,
 *
 *     {"ok": false, "v": 2,
 *      "error": {"code": "...", "message": "...",
 *                "retry_after_ms": 250}}         // hint only when retryable
 *
 * The unversioned v1 shape (string errors, a top-level
 * `retry_after_ms`) is retired: a request without `"v"` or with
 * `"v": 1` is refused with `unsupported_version`.
 *
 * The version lives in the *envelope*, next to `type`/`id`/
 * `deadline_ms`, never inside `request` — so it is excluded from
 * ExperimentRequest::fingerprint() by construction.
 */

#pragma once

#include <cstdint>
#include <optional>

#include "api/json.hpp"

namespace hpe::api::protocol {

/** The one version the daemon speaks (and `submit` requests). */
inline constexpr int kVersionCurrent = 2;

/** @{ v2 error codes (the closed vocabulary docs/api.md documents). */
inline constexpr char kErrParse[] = "parse_error";
inline constexpr char kErrBadRequest[] = "bad_request";
inline constexpr char kErrUnknownType[] = "unknown_type";
inline constexpr char kErrUnsupportedVersion[] = "unsupported_version";
inline constexpr char kErrOversized[] = "oversized_request";
inline constexpr char kErrShedHitOnly[] = "shed_hit_only";
inline constexpr char kErrShedReject[] = "shed_reject";
inline constexpr char kErrSaturated[] = "saturated";
inline constexpr char kErrDeadline[] = "deadline_exceeded";
inline constexpr char kErrExperimentFailed[] = "experiment_failed";
/** @} */

/**
 * The backoff hint of a shed/saturated response, nested in its error
 * object; nullopt when the response carries none (not retryable).
 */
inline std::optional<std::uint64_t>
retryAfterMs(const json::Value &response)
{
    if (const json::Value *error = response.find("error");
        error != nullptr && error->isObject())
        if (const json::Value *hint = error->find("retry_after_ms");
            hint != nullptr && hint->isNumber())
            return hint->asUint();
    return std::nullopt;
}

/**
 * The human-readable failure text of an `ok:false` response ("" when
 * absent or malformed).
 */
inline std::string
errorMessage(const json::Value &response)
{
    if (const json::Value *error = response.find("error");
        error != nullptr && error->isObject())
        if (const json::Value *message = error->find("message");
            message != nullptr && message->isString())
            return message->asString();
    return "";
}

} // namespace hpe::api::protocol
