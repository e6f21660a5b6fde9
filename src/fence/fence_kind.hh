/**
 * @file
 * The paper's taxonomy (Table 1): five system-wide fence designs and the
 * per-instance fence kinds they resolve workload fence roles to.
 *
 *   S+   groups with only strong fences (conventional baseline)
 *   WS+  asymmetric groups with at most one weak fence
 *        (BS + Order bit + Order operation)
 *   SW+  any asymmetric group
 *        (BS + Order bit + word-granularity info + Conditional Order)
 *   W+   any group, including all-weak
 *        (BS + checkpoint + bounce detection + timeout + recovery)
 *   Wee  the WeeFence baseline (BS + global GRT/PS state)
 */

#ifndef ASF_FENCE_FENCE_KIND_HH
#define ASF_FENCE_FENCE_KIND_HH

#include <optional>
#include <string>

#include "prog/instr.hh"

namespace asf
{

/** System-wide fence implementation selected for a run. */
enum class FenceDesign : uint8_t
{
    SPlus,
    WSPlus,
    SWPlus,
    WPlus,
    Wee,
};

/** What one executed fence instruction behaves as. */
enum class FenceKind : uint8_t
{
    Strong,  ///< conventional fence (sf)
    Weak,    ///< wf of the active asymmetric design
    WeeWeak, ///< WeeFence (GRT/PS protocol)
};

/** Resolve a workload fence role under a design. */
FenceKind resolveFenceKind(FenceDesign design, FenceRole role);

const char *fenceDesignName(FenceDesign d);
const char *fenceKindName(FenceKind k);

/** Parse "S+", "WS+", "SW+", "W+", "Wee" (case-insensitive, plus the
 *  long forms "splus" ... "weefence"); nullopt for anything else. */
std::optional<FenceDesign> tryParseFenceDesign(const std::string &name);

/** tryParseFenceDesign for CLI input: fatal() on an unknown name. */
FenceDesign parseFenceDesign(const std::string &name);

/** All five designs, in the paper's presentation order. */
extern const FenceDesign allFenceDesigns[5];

} // namespace asf

#endif // ASF_FENCE_FENCE_KIND_HH
