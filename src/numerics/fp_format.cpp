#include "numerics/fp_format.h"

#include <algorithm>
#include <cctype>

#include "common/logging.h"

namespace figlut {

std::string
actFormatName(ActFormat fmt)
{
    switch (fmt) {
      case ActFormat::FP16: return "FP16";
      case ActFormat::BF16: return "BF16";
      case ActFormat::FP32: return "FP32";
    }
    panic("unknown ActFormat value ", static_cast<int>(fmt));
}

const FpSpec &
actFormatSpec(ActFormat fmt)
{
    switch (fmt) {
      case ActFormat::FP16: return kFp16Spec;
      case ActFormat::BF16: return kBf16Spec;
      case ActFormat::FP32: return kFp32Spec;
    }
    panic("unknown ActFormat value ", static_cast<int>(fmt));
}

int
significandBits(ActFormat fmt)
{
    return actFormatSpec(fmt).mantBits + 1;
}

int
storageBits(ActFormat fmt)
{
    return fmt == ActFormat::FP32 ? 32 : 16;
}

double
quantizeToFormatFullRange(double v, ActFormat fmt)
{
    if (fmt == ActFormat::FP32)
        return static_cast<double>(static_cast<float>(v));
    const FpSpec &spec = actFormatSpec(fmt);
    return decodeFormat(roundToFormat(v, spec), spec);
}

uint32_t
encodeFormat(double v, ActFormat fmt)
{
    if (fmt == ActFormat::FP32) {
        const float f = static_cast<float>(v);
        uint32_t bits;
        static_assert(sizeof(bits) == sizeof(f));
        __builtin_memcpy(&bits, &f, sizeof(bits));
        return bits;
    }
    return roundToFormat(v, actFormatSpec(fmt));
}

ActFormat
parseActFormat(const std::string &name)
{
    std::string up = name;
    std::transform(up.begin(), up.end(), up.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    if (up == "FP16")
        return ActFormat::FP16;
    if (up == "BF16")
        return ActFormat::BF16;
    if (up == "FP32")
        return ActFormat::FP32;
    fatal("unknown activation format '", name,
          "' (expected FP16, BF16 or FP32)");
}

} // namespace figlut
