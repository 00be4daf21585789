#include "support/args.hpp"

namespace papc {

Args::Args(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
        std::string token = argv[i];
        if (token.rfind("--", 0) != 0 || token.size() <= 2) {
            error_ = "unexpected argument: " + token;
            return;
        }
        token = token.substr(2);
        const std::size_t eq = token.find('=');
        if (eq != std::string::npos) {
            values_[token.substr(0, eq)] = token.substr(eq + 1);
            continue;
        }
        // `--key value` when the next token is not an option; else a flag.
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            values_[token] = argv[i + 1];
            ++i;
        } else {
            values_[token] = "";
        }
    }
}

bool Args::has(const std::string& key) const {
    queried_[key] = true;
    return values_.count(key) > 0;
}

std::string Args::get(const std::string& key, const std::string& fallback) const {
    queried_[key] = true;
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.empty()) return fallback;
    return it->second;
}

bool Args::get_flag(const std::string& key) const {
    queried_[key] = true;
    const auto it = values_.find(key);
    if (it == values_.end()) return false;
    return it->second.empty() || it->second == "1" || it->second == "true" ||
           it->second == "yes";
}

std::vector<std::string> Args::unused() const {
    std::vector<std::string> out;
    for (const auto& [key, value] : values_) {
        (void)value;
        if (queried_.find(key) == queried_.end()) out.push_back(key);
    }
    return out;
}

std::string Args::unknown_option_error() const {
    const std::vector<std::string> unknown = unused();
    if (unknown.empty()) return {};
    std::string out = unknown.size() == 1 ? "unknown option" : "unknown options";
    for (std::size_t i = 0; i < unknown.size(); ++i) {
        out += (i == 0 ? " --" : ", --") + unknown[i];
    }
    return out;
}

}  // namespace papc
