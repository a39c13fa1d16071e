#include "ir/gate.h"

#include "common/logging.h"

namespace square {

namespace {

/** The rest of a kind's description; its arity is kGateArity. */
struct GateInfo
{
    std::string_view name;
    bool classical;
    GateKind inverse;
};

constexpr int kNumKinds = static_cast<int>(GateKind::NumKinds);

const GateInfo kGateTable[kNumKinds] = {
    /* X       */ {"X", true, GateKind::X},
    /* CNOT    */ {"CNOT", true, GateKind::CNOT},
    /* Toffoli */ {"Toffoli", true, GateKind::Toffoli},
    /* Swap    */ {"Swap", true, GateKind::Swap},
    /* H       */ {"H", false, GateKind::H},
    /* Z       */ {"Z", false, GateKind::Z},
    /* S       */ {"S", false, GateKind::Sdg},
    /* Sdg     */ {"Sdg", false, GateKind::S},
    /* T       */ {"T", false, GateKind::Tdg},
    /* Tdg     */ {"Tdg", false, GateKind::T},
    /* CZ      */ {"CZ", false, GateKind::CZ},
};

const GateInfo &
info(GateKind kind)
{
    int idx = static_cast<int>(kind);
    SQ_ASSERT(idx >= 0 && idx < kNumKinds, "gate kind out of range");
    return kGateTable[idx];
}

} // namespace

bool
gateIsClassical(GateKind kind)
{
    return info(kind).classical;
}

GateKind
gateInverse(GateKind kind)
{
    return info(kind).inverse;
}

std::string_view
gateName(GateKind kind)
{
    return info(kind).name;
}

bool
gateFromName(std::string_view name, GateKind &out)
{
    for (int i = 0; i < kNumKinds; ++i) {
        if (kGateTable[i].name == name) {
            out = static_cast<GateKind>(i);
            return true;
        }
    }
    if (name == "NOT") { out = GateKind::X; return true; }
    if (name == "CX") { out = GateKind::CNOT; return true; }
    if (name == "CCNOT" || name == "CCX") {
        out = GateKind::Toffoli;
        return true;
    }
    if (name == "SWAP") { out = GateKind::Swap; return true; }
    return false;
}

} // namespace square
