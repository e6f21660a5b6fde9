#include "fence/fence_kind.hh"

#include <algorithm>
#include <cctype>

#include "sim/logging.hh"

namespace asf
{

const FenceDesign allFenceDesigns[5] = {
    FenceDesign::SPlus, FenceDesign::WSPlus, FenceDesign::SWPlus,
    FenceDesign::WPlus, FenceDesign::Wee};

FenceKind
resolveFenceKind(FenceDesign design, FenceRole role)
{
    switch (design) {
      case FenceDesign::SPlus:
        return FenceKind::Strong;
      case FenceDesign::WSPlus:
      case FenceDesign::SWPlus:
        // Critical threads get the weak fence, the rest stay strong.
        return role == FenceRole::Critical ? FenceKind::Weak
                                           : FenceKind::Strong;
      case FenceDesign::WPlus:
        // W+ tolerates all-weak groups, so every fence is weak.
        return FenceKind::Weak;
      case FenceDesign::Wee:
        return FenceKind::WeeWeak;
    }
    panic("bad fence design");
}

const char *
fenceDesignName(FenceDesign d)
{
    switch (d) {
      case FenceDesign::SPlus: return "S+";
      case FenceDesign::WSPlus: return "WS+";
      case FenceDesign::SWPlus: return "SW+";
      case FenceDesign::WPlus: return "W+";
      case FenceDesign::Wee: return "Wee";
    }
    return "?";
}

const char *
fenceKindName(FenceKind k)
{
    switch (k) {
      case FenceKind::Strong: return "sf";
      case FenceKind::Weak: return "wf";
      case FenceKind::WeeWeak: return "wee-wf";
    }
    return "?";
}

std::optional<FenceDesign>
tryParseFenceDesign(const std::string &name)
{
    std::string s;
    s.reserve(name.size());
    for (char c : name)
        s.push_back(char(std::tolower(static_cast<unsigned char>(c))));
    if (s == "s+" || s == "splus")
        return FenceDesign::SPlus;
    if (s == "ws+" || s == "wsplus")
        return FenceDesign::WSPlus;
    if (s == "sw+" || s == "swplus")
        return FenceDesign::SWPlus;
    if (s == "w+" || s == "wplus")
        return FenceDesign::WPlus;
    if (s == "wee" || s == "weefence")
        return FenceDesign::Wee;
    return std::nullopt;
}

FenceDesign
parseFenceDesign(const std::string &name)
{
    if (auto d = tryParseFenceDesign(name))
        return *d;
    fatal("unknown fence design '%s'", name.c_str());
}

} // namespace asf
