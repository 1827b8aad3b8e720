#include "logic/v4.hh"

namespace ulpeak {

// The hot ops (logicAnd/logicOr/logicXor/logicNot/logicMux) are
// constexpr in v4.hh; only the cold string/character helpers stay out
// of line.

char
v4Char(V4 v)
{
    switch (v) {
      case V4::Zero: return '0';
      case V4::One: return '1';
      default: return 'x';
    }
}

V4
v4FromChar(char c)
{
    if (c == '0')
        return V4::Zero;
    if (c == '1')
        return V4::One;
    return V4::X;
}

std::string
Word16::toString() const
{
    std::string s;
    s.reserve(16);
    for (int i = 15; i >= 0; --i)
        s.push_back(v4Char(bit(unsigned(i))));
    return s;
}

} // namespace ulpeak
