#pragma once

/// \file args.hpp
/// Minimal command-line argument parser for the example/CLI binaries.
/// Supports `--key value`, `--key=value` and boolean `--flag` forms.

#include <map>
#include <string>
#include <vector>

namespace papc {

class Args {
public:
    /// Parses argv; returns false (and fills error()) on malformed input
    /// (an option without the leading `--`).
    Args(int argc, const char* const* argv);

    [[nodiscard]] bool ok() const { return error_.empty(); }
    [[nodiscard]] const std::string& error() const { return error_; }

    /// True when the option was present (with or without a value).
    [[nodiscard]] bool has(const std::string& key) const;

    /// Value lookups with defaults; has(key) without a value yields the
    /// default for get and true for get_flag.
    [[nodiscard]] std::string get(const std::string& key,
                                  const std::string& fallback) const;
    [[nodiscard]] bool get_flag(const std::string& key) const;

    /// Options that were parsed but never queried — typo detection.
    [[nodiscard]] std::vector<std::string> unused() const;

    /// Strict typo rejection: after querying every option the binary
    /// understands, call this — a non-empty return is a ready-to-print
    /// error naming each unrecognized option ("unknown option --lamda").
    /// Binaries should fail fast on it instead of silently running with
    /// defaults.
    [[nodiscard]] std::string unknown_option_error() const;

private:
    std::map<std::string, std::string> values_;
    mutable std::map<std::string, bool> queried_;
    std::string error_;
};

}  // namespace papc
