/**
 * @file
 * Byte-stream primitives and the field vocabulary of deterministic
 * snapshots.
 *
 * A snapshot is a flat little-endian byte stream. Every stateful
 * component describes its layout once, as a function template
 * `walk(ar, self)` that visits its fields in a fixed order; the same
 * walk runs with a Writer (serialize: append each field) and with a
 * Reader (restore: overwrite each field). Direction-specific logic —
 * clearing a container before it is refilled, replaying derived
 * state — sits inside the walk under `if constexpr (Ar::kReading)`,
 * so no field is ever listed twice and the two directions cannot
 * drift apart. Dispatch is static: the archive is a template
 * parameter, never a virtual interface. A component declares its walk
 * as a private static template, defines it in its .cpp with one
 * explicit instantiation per archive, and keeps serialize(w) and
 * restore(r) as inline one-line entry points.
 *
 * The vocabulary both archives share:
 *   - ar(a, b, ...)        integers (width = sizeof the member),
 *                          bools, doubles, strings, pairs, arrays,
 *                          nested components (their serialize() /
 *                          restore()) and value types with a walk()
 *                          overload;
 *   - ar.tag(t)            a fourcc at a component boundary;
 *   - ar.expect(v, why)    a structural value the reader recomputes
 *                          from its own construction (node id, VC
 *                          count, FIFO capacity, presence flags);
 *   - ar.check(ok, why)    a range check on a value just restored;
 *   - ar.count(n)          a sequence length, bounded on read by the
 *                          bytes that remain;
 *   - ar.enumeration(e, max) a one-byte enum, range-checked on read;
 *   - sequence / optional / sortedMap / sortedSet / as<Wire>: the
 *     container shapes, built from the above.
 *
 * There is no in-stream schema — the walk *is* the schema — so the
 * format is guarded three ways: a CRC-32C per section (file.hpp),
 * fourcc tags at component boundaries, and strict checks in the
 * Reader (truncation, counts larger than the remaining bytes,
 * oversized strings, non-0/1 booleans and out-of-range enums all
 * throw instead of yielding garbage).
 *
 * All failures throw SnapshotError; callers at the load boundary
 * translate that into a structured error message. Writers never fail.
 */

#ifndef NOX_SNAPSHOT_IO_HPP
#define NOX_SNAPSHOT_IO_HPP

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace nox::snap {

/**
 * What a serialize() pass is feeding. The byte layout is identical in
 * both scopes except that Digest omits per-process / per-configuration
 * state that is deliberately allowed to differ between two equivalent
 * trajectories — today that is the EnergyEvents counters, which the
 * activity kernel clock-gates for retired components. Snapshot scope
 * must stay lossless (restore() reads every field back); Digest scope
 * exists so the state-digest ledger hashes only the canonical,
 * kernel-independent trajectory.
 */
enum class Scope : std::uint8_t
{
    Snapshot,
    Digest,
};

/** Any malformed-snapshot condition: truncation, bad tag, bad value. */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * CRC-32C (Castagnoli) over an arbitrary buffer — the same polynomial
 * and bit order as the link-level wireChecksum() in noc/flit.cpp, so
 * the snapshot integrity check reuses hardware-verified math.
 */
std::uint32_t crc32c(const std::uint8_t *data, std::size_t len);

/** Standard shapes the archives' field() recurses into. */
template <class T> struct IsPair : std::false_type
{
};
template <class A, class B> struct IsPair<std::pair<A, B>> : std::true_type
{
};
template <class T> struct IsArray : std::false_type
{
};
template <class T, std::size_t N>
struct IsArray<std::array<T, N>> : std::true_type
{
};

/** Little-endian append-only byte sink. */
class Writer
{
  public:
    /** Walk direction: a walk over a Writer reads its object. */
    static constexpr bool kReading = false;

    template <class... T>
    void
    operator()(const T &...v)
    {
        (field(v), ...);
    }

    void tag(std::uint32_t t) { field(t); }

    template <class T>
    void
    expect(const T &v, const char *)
    {
        field(v);
    }

    void check(bool, const char *) const {}

    std::size_t
    count(std::size_t n)
    {
        field(std::uint64_t{n});
        return n;
    }

    template <class E>
    void
    enumeration(E e, E)
    {
        field(static_cast<std::uint8_t>(e));
    }

    template <class T>
    void
    field(const T &v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            buf_.push_back(v ? 1 : 0);
        } else if constexpr (std::is_same_v<T, double>) {
            field(std::bit_cast<std::uint64_t>(v)); // NaN/inf exact
        } else if constexpr (std::is_same_v<T, std::string>) {
            field(std::uint64_t{v.size()});
            buf_.insert(buf_.end(), v.begin(), v.end());
        } else if constexpr (std::is_integral_v<T>) {
            const auto u = static_cast<std::uint64_t>(v);
            for (std::size_t i = 0; i < sizeof(T); ++i)
                buf_.push_back(static_cast<std::uint8_t>(u >> (8 * i)));
        } else if constexpr (std::is_enum_v<T>) {
            static_assert(sizeof(T) == 0, "use enumeration()");
        } else if constexpr (IsPair<T>::value) {
            (*this)(v.first, v.second);
        } else if constexpr (IsArray<T>::value) {
            for (const auto &x : v)
                field(x);
        } else if constexpr (requires { v.serialize(*this); }) {
            v.serialize(*this);
        } else {
            walk(*this, v);
        }
    }

    void
    bytes(const std::uint8_t *data, std::size_t len)
    {
        buf_.insert(buf_.end(), data, data + len);
    }

    const std::vector<std::uint8_t> &data() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

    /** Drop the contents but keep the capacity — the digest ledger
     *  reuses one scratch Writer across components so the steady-state
     *  hash path never allocates. */
    void clear() { buf_.clear(); }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked little-endian byte source over a borrowed buffer. */
class Reader
{
  public:
    /** Walk direction: a walk over a Reader overwrites its object. */
    static constexpr bool kReading = true;

    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    template <class... T>
    void
    operator()(T &...v)
    {
        (field(v), ...);
    }

    /** Throws unless the next u32 is @p expect. */
    void tag(std::uint32_t expect);

    /** Throws @p why unless the next field equals @p want. */
    template <class T>
    void
    expect(const T &want, const char *why)
    {
        T got{};
        field(got);
        if (!(got == want))
            fail(why);
    }

    void
    check(bool ok, const char *why) const
    {
        if (!ok)
            fail(why);
    }

    /** Every element takes at least one byte, so a count above
     *  remaining() is a desync — caught before anything allocates. */
    std::size_t
    count(std::size_t)
    {
        std::uint64_t n = 0;
        field(n);
        if (n > remaining())
            fail("sequence count " + std::to_string(n) +
                 " exceeds the remaining bytes");
        return static_cast<std::size_t>(n);
    }

    template <class E>
    void
    enumeration(E &e, E max)
    {
        std::uint8_t v = 0;
        field(v);
        if (v > static_cast<std::uint8_t>(max))
            fail("enum byte " + std::to_string(v) + " out of range");
        e = static_cast<E>(v);
    }

    template <class T>
    void
    field(T &v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            // Strict: any byte other than 0/1 means the stream desynced.
            std::uint8_t b = 0;
            field(b);
            if (b > 1)
                fail("boolean byte out of range (stream desync)");
            v = b != 0;
        } else if constexpr (std::is_same_v<T, double>) {
            std::uint64_t bits = 0;
            field(bits);
            v = std::bit_cast<double>(bits);
        } else if constexpr (std::is_same_v<T, std::string>) {
            std::uint64_t len = 0;
            field(len);
            if (len > remaining())
                fail("string length exceeds remaining bytes");
            v.assign(reinterpret_cast<const char *>(data_ + pos_),
                     static_cast<std::size_t>(len));
            pos_ += static_cast<std::size_t>(len);
        } else if constexpr (std::is_integral_v<T>) {
            need(sizeof(T));
            std::uint64_t u = 0;
            for (std::size_t i = 0; i < sizeof(T); ++i)
                u |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
            pos_ += sizeof(T);
            v = static_cast<T>(u);
        } else if constexpr (std::is_enum_v<T>) {
            static_assert(sizeof(T) == 0, "use enumeration()");
        } else if constexpr (IsPair<T>::value) {
            (*this)(v.first, v.second);
        } else if constexpr (IsArray<T>::value) {
            for (auto &x : v)
                field(x);
        } else if constexpr (requires { v.restore(*this); }) {
            v.restore(*this);
        } else {
            walk(*this, v);
        }
    }

    void
    bytes(std::uint8_t *out, std::size_t len)
    {
        need(len);
        std::copy_n(data_ + pos_, len, out);
        pos_ += len;
    }

    std::size_t remaining() const { return size_ - pos_; }
    std::size_t offset() const { return pos_; }

    /** Call once a section is fully consumed: trailing bytes are
     *  just as much a desync as missing ones. */
    void
    expectEnd() const
    {
        if (pos_ != size_) {
            throw SnapshotError(
                "section has " + std::to_string(size_ - pos_) +
                " unconsumed trailing byte(s) (stream desync)");
        }
    }

    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw SnapshotError(why + " at offset " +
                            std::to_string(pos_) + " of " +
                            std::to_string(size_));
    }

  private:
    void
    need(std::size_t n) const
    {
        if (n > remaining())
            fail("truncated stream (need " + std::to_string(n) +
                 " byte(s))");
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** Pack a 4-character tag ("NETW") into its little-endian u32. */
constexpr std::uint32_t
fourcc(const char (&s)[5])
{
    return static_cast<std::uint32_t>(
        static_cast<std::uint8_t>(s[0]) |
        (static_cast<std::uint32_t>(
             static_cast<std::uint8_t>(s[1]))
         << 8) |
        (static_cast<std::uint32_t>(
             static_cast<std::uint8_t>(s[2]))
         << 16) |
        (static_cast<std::uint32_t>(
             static_cast<std::uint8_t>(s[3]))
         << 24));
}

/** Render a fourcc back to text for error messages. */
std::string fourccName(std::uint32_t tag);

/** The object type a walk over @p Ar visits: const when writing. */
template <class Ar, class T>
using Field = std::conditional_t<Ar::kReading, T, const T>;

/**
 * A field whose wire type differs from its member type (a byte flag
 * stored as a checked bool, a narrow member stored wide). The reader
 * rejects values the member cannot hold.
 */
template <class Wire, class Ar, class T>
void
as(Ar &ar, T &v)
{
    Wire w = static_cast<Wire>(v);
    ar(w);
    if constexpr (Ar::kReading) {
        v = static_cast<T>(w);
        ar.check(static_cast<Wire>(v) == w, "field out of range");
    }
}

/** A vector or deque: its count, then each element through @p each
 *  (the reader refills it from empty). */
template <class Ar, class Seq, class F>
void
sequence(Ar &ar, Seq &seq, F &&each)
{
    const std::size_t n = ar.count(seq.size());
    if constexpr (Ar::kReading) {
        seq.clear();
        seq.resize(n);
    }
    for (auto &e : seq)
        each(e);
}

template <class Ar, class Seq>
void
sequence(Ar &ar, Seq &seq)
{
    sequence(ar, seq, [&ar](auto &e) { ar(e); });
}

/** An optional value: a presence bool, then the value through
 *  @p each. */
template <class Ar, class Opt, class F>
void
optional(Ar &ar, Opt &opt, F &&each)
{
    bool has = opt.has_value();
    ar(has);
    if constexpr (Ar::kReading) {
        if (has)
            opt.emplace();
        else
            opt.reset();
    }
    if (has)
        each(*opt);
}

template <class Ar, class Opt>
void
optional(Ar &ar, Opt &opt)
{
    optional(ar, opt, [&ar](auto &v) { ar(v); });
}

/** Keys of an unordered container in ascending order: hash-table
 *  iteration order must not leak into the byte stream. */
template <class Container>
std::vector<typename Container::key_type>
sortedKeys(const Container &c)
{
    std::vector<typename Container::key_type> keys;
    keys.reserve(c.size());
    for (const auto &e : c) {
        if constexpr (requires { e.first; })
            keys.push_back(e.first);
        else
            keys.push_back(e);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

/** An unordered map in sorted key order: count, then each key and its
 *  value through @p each. Duplicate keys on read are a desync. */
template <class Ar, class Map, class F>
void
sortedMap(Ar &ar, Map &m, F &&each)
{
    if constexpr (Ar::kReading) {
        m.clear();
        const std::size_t n = ar.count(0);
        m.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            typename Map::key_type k{};
            ar(k);
            const auto [it, fresh] = m.try_emplace(k);
            ar.check(fresh, "duplicate map key");
            each(it->second);
        }
    } else {
        const auto keys = sortedKeys(m);
        ar.count(keys.size());
        for (const auto &k : keys) {
            ar(k);
            each(m.at(k));
        }
    }
}

template <class Ar, class Map>
void
sortedMap(Ar &ar, Map &m)
{
    sortedMap(ar, m, [&ar](auto &v) { ar(v); });
}

/** An unordered set in sorted order; duplicates on read are a
 *  desync. */
template <class Ar, class Set>
void
sortedSet(Ar &ar, Set &s)
{
    if constexpr (Ar::kReading) {
        s.clear();
        const std::size_t n = ar.count(0);
        s.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            typename Set::key_type k{};
            ar(k);
            ar.check(s.insert(k).second, "duplicate set entry");
        }
    } else {
        const auto keys = sortedKeys(s);
        ar.count(keys.size());
        for (const auto &k : keys)
            ar(k);
    }
}

} // namespace nox::snap

#endif // NOX_SNAPSHOT_IO_HPP
