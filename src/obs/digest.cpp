/** @file Digest-ledger implementation (see digest.hpp). */

#include "obs/digest.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/jsonl.hpp"
#include "common/log.hpp"

namespace nox {
namespace {

constexpr DigestHash kFnvOffset = 0xcbf29ce484222325ULL;
constexpr DigestHash kFnvPrime = 0x100000001b3ULL;

/** splitmix64-style avalanche: spreads single-bit differences over
 *  the whole word so truncated comparisons stay discriminating. */
DigestHash
avalanche(DigestHash h)
{
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h;
}

std::string
hex16(DigestHash h)
{
    static const char digits[] = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i) {
        s[static_cast<std::size_t>(i)] = digits[h & 0xf];
        h >>= 4;
    }
    return s;
}

bool
parseHex(const std::string &s, DigestHash *out)
{
    if (s.empty() || s.size() > 16)
        return false;
    char *end = nullptr;
    *out = std::strtoull(s.c_str(), &end, 16);
    return end == s.c_str() + s.size();
}

bool
findHex(const std::string &line, const char *key, DigestHash *out)
{
    std::string s;
    return jsonl::find(line, key, s) && parseHex(s, out);
}

bool
findHexArray(const std::string &line, const char *key,
             std::vector<DigestHash> *out)
{
    std::vector<std::string> items;
    if (!jsonl::find(line, key, items))
        return false;
    out->assign(items.size(), 0);
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (!parseHex(items[i], &(*out)[i]))
            return false;
    }
    return true;
}

} // namespace

DigestHash
digestBytes(const std::uint8_t *data, std::size_t len)
{
    DigestHash h = kFnvOffset;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= data[i];
        h *= kFnvPrime;
    }
    h = avalanche(h);
    // 0 is reserved for "component absent"; remap the (astronomically
    // unlikely) real hash of 0 so absence can never alias presence.
    return h != 0 ? h : 1;
}

DigestHash
digestMix(DigestHash h, std::uint64_t v)
{
    return (h ^ avalanche(v)) * kFnvPrime;
}

DigestHash
DigestStride::fold() const
{
    DigestHash h = kFnvOffset;
    h = digestMix(h, cycle);
    h = digestMix(h, global);
    h = digestMix(h, sources);
    h = digestMix(h, faults);
    h = digestMix(h, transport);
    h = digestMix(h, routers.size());
    for (DigestHash r : routers)
        h = digestMix(h, r);
    h = digestMix(h, nics.size());
    for (DigestHash n : nics)
        h = digestMix(h, n);
    return h;
}

std::vector<std::string>
divergentComponents(const DigestStride &a, const DigestStride &b)
{
    std::vector<std::string> out;
    if (a.global != b.global)
        out.push_back("global");
    if (a.sources != b.sources)
        out.push_back("sources");
    if (a.faults != b.faults)
        out.push_back("faults");
    if (a.transport != b.transport)
        out.push_back("transport");
    const std::size_t nr = std::max(a.routers.size(), b.routers.size());
    for (std::size_t i = 0; i < nr; ++i) {
        const DigestHash ra = i < a.routers.size() ? a.routers[i] : 0;
        const DigestHash rb = i < b.routers.size() ? b.routers[i] : 0;
        if (ra != rb)
            out.push_back("router:" + std::to_string(i));
    }
    const std::size_t nn = std::max(a.nics.size(), b.nics.size());
    for (std::size_t i = 0; i < nn; ++i) {
        const DigestHash na = i < a.nics.size() ? a.nics[i] : 0;
        const DigestHash nb = i < b.nics.size() ? b.nics[i] : 0;
        if (na != nb)
            out.push_back("nic:" + std::to_string(i));
    }
    return out;
}

DigestLedger::DigestLedger(const DigestParams &params) : params_(params)
{
    NOX_ASSERT(params_.interval > 0,
               "digest interval must be positive");
    if (!params_.jsonlPath.empty()) {
        out_.open(params_.jsonlPath, std::ios::trunc);
        if (!out_) {
            warn("digest: cannot open '", params_.jsonlPath,
                 "' for writing; ledger will be in-memory only");
        }
    }
}

void
DigestLedger::writeHeader(const std::string &fingerprint)
{
    if (!out_)
        return;
    out_ << "{\"type\": \"digest_header\", \"interval\": "
         << params_.interval << ", \"fingerprint\": \""
         << jsonl::escape(fingerprint) << "\"}\n";
    out_.flush();
}

void
DigestLedger::record(DigestStride stride)
{
    if (out_) {
        out_ << "{\"type\": \"digest\", \"cycle\": " << stride.cycle
             << ", \"fold\": \"" << hex16(stride.fold())
             << "\", \"global\": \"" << hex16(stride.global)
             << "\", \"sources\": \"" << hex16(stride.sources)
             << "\", \"faults\": \"" << hex16(stride.faults)
             << "\", \"transport\": \"" << hex16(stride.transport)
             << "\", \"routers\": [";
        for (std::size_t i = 0; i < stride.routers.size(); ++i) {
            out_ << (i ? ", " : "") << "\"" << hex16(stride.routers[i])
                 << "\"";
        }
        out_ << "], \"nics\": [";
        for (std::size_t i = 0; i < stride.nics.size(); ++i) {
            out_ << (i ? ", " : "") << "\"" << hex16(stride.nics[i])
                 << "\"";
        }
        // Flush per stride: a crashed or killed run still leaves a
        // complete ledger prefix for the bisector to work from.
        out_ << "]}\n";
        out_.flush();
    }
    strides_.push_back(std::move(stride));
}

bool
loadDigestLedger(const std::string &path, LedgerFile *out,
                 std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        *err = "cannot open '" + path + "'";
        return false;
    }
    *out = LedgerFile{};
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::string type;
        if (!jsonl::find(line, "type", type)) {
            *err = path + ":" + std::to_string(lineno) +
                   ": missing \"type\" field";
            return false;
        }
        if (type == "digest_header") {
            // A missing or non-numeric interval must not read as 0:
            // compareLedgers treats 0 as "unknown" and skips its
            // interval-mismatch check.
            if (!jsonl::find(line, "interval", out->interval) ||
                out->interval == 0) {
                *err = path + ":" + std::to_string(lineno) +
                       ": malformed digest header interval";
                return false;
            }
            jsonl::find(line, "fingerprint", out->fingerprint);
            continue;
        }
        if (type != "digest")
            continue; // foreign record kinds are tolerated
        DigestStride s;
        DigestHash fold = 0;
        if (!jsonl::find(line, "cycle", s.cycle) ||
            !findHex(line, "fold", &fold) ||
            !findHex(line, "global", &s.global) ||
            !findHex(line, "sources", &s.sources) ||
            !findHex(line, "faults", &s.faults) ||
            !findHex(line, "transport", &s.transport) ||
            !findHexArray(line, "routers", &s.routers) ||
            !findHexArray(line, "nics", &s.nics)) {
            *err = path + ":" + std::to_string(lineno) +
                   ": malformed digest record";
            return false;
        }
        if (s.fold() != fold) {
            *err = path + ":" + std::to_string(lineno) +
                   ": fold mismatch (corrupt or hand-edited ledger)";
            return false;
        }
        out->strides.push_back(std::move(s));
    }
    return true;
}

DigestDivergence
compareStrides(const std::vector<DigestStride> &a,
               const std::vector<DigestStride> &b)
{
    DigestDivergence d;
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i].cycle != b[i].cycle) {
            d.comparable = false;
            d.error = "stride " + std::to_string(i) +
                      " cycles misaligned (A=" +
                      std::to_string(a[i].cycle) +
                      " B=" + std::to_string(b[i].cycle) +
                      "); were the ledgers written with the same "
                      "digest_interval?";
            return d;
        }
        d.stridesCompared = i + 1;
        if (a[i] != b[i]) {
            d.diverged = true;
            d.cycle = a[i].cycle;
            d.components = divergentComponents(a[i], b[i]);
            return d;
        }
        d.lastAgreeCycle = static_cast<std::int64_t>(a[i].cycle);
    }
    return d;
}

DigestDivergence
compareLedgers(const LedgerFile &a, const LedgerFile &b)
{
    if (a.interval != 0 && b.interval != 0 &&
        a.interval != b.interval) {
        DigestDivergence d;
        d.comparable = false;
        d.error = "digest intervals differ (A=" +
                  std::to_string(a.interval) +
                  " B=" + std::to_string(b.interval) + ")";
        return d;
    }
    return compareStrides(a.strides, b.strides);
}

} // namespace nox
