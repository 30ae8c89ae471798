#include "snapshot/io.hpp"

namespace nox::snap {

std::uint32_t
crc32c(const std::uint8_t *data, std::size_t len)
{
    // CRC-32C (Castagnoli), bitwise — identical math to the
    // link-level wireChecksum() in noc/flit.cpp.
    constexpr std::uint32_t kPoly = 0x82F63B78u;
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= data[i];
        for (int b = 0; b < 8; ++b)
            crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    return crc ^ 0xFFFFFFFFu;
}

std::string
fourccName(std::uint32_t tag)
{
    std::string s;
    for (int i = 0; i < 4; ++i) {
        const char c =
            static_cast<char>((tag >> (8 * i)) & 0xFFu);
        s.push_back((c >= 0x20 && c < 0x7F) ? c : '?');
    }
    return s;
}

void
Reader::tag(std::uint32_t expect)
{
    std::uint32_t got = 0;
    field(got);
    if (got != expect) {
        fail("component tag mismatch: expected '" + fourccName(expect) +
             "', found '" + fourccName(got) + "'");
    }
}

} // namespace nox::snap
