#!/usr/bin/env python3
"""Regenerate everything under fixtures/ from the in-code definitions."""

from __future__ import annotations

import sys
from pathlib import Path

from chorenforce import Scenario, cli, save_model, save_scenario
from chorenforce.participants import Action, Injection, ScriptSpec
from chorenforce.socialprox import (
    ENV_BOTH_TRUE,
    ENV_SHARE_DISABLED,
    IM,
    IM_ACTIONS,
    NMU,
    SPS,
    SPS_ACTIONS,
    SPS_REORDERABLE,
    UMS,
    social_proximity,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def im_script() -> ScriptSpec:
    return ScriptSpec(role=IM, actions=tuple(Action(t, r) for t, r in IM_ACTIONS))


def sps_script(**kw) -> ScriptSpec:
    return ScriptSpec(
        role=SPS, actions=tuple(Action(t, r) for t, r in SPS_ACTIONS), **kw
    )


def main() -> int:
    FIXTURES.mkdir(exist_ok=True)
    model = social_proximity()
    model_path = FIXTURES / "social_proximity.json"
    save_model(model, model_path)
    # gen-cm names the files and refuses pairs whose names clash
    cm_dir = FIXTURES / "coordination_models"
    if cli.main(["gen-cm", str(model_path), "--out-dir", str(cm_dir)]) != 0:
        return 1

    inorder = Scenario(
        model=model,
        environment=ENV_BOTH_TRUE,
        scripts=(im_script(), sps_script()),
        mode="inorder",
    )
    save_scenario(inorder, FIXTURES / "scenario_inorder.json")

    shuffled = Scenario(
        model=model,
        environment=ENV_BOTH_TRUE,
        scripts=(
            im_script(),
            sps_script(reorder_groups=tuple(tuple(g) for g in SPS_REORDERABLE)),
        ),
        mode="shuffled",
    )
    save_scenario(shuffled, FIXTURES / "scenario_shuffled.json")

    # The rogue variant: startItin toward NMU fires as a concurrent side
    # request right after notifyUser completes, far before its turn.
    adversarial_main = [
        Action("getFriends", UMS),
        Action("getLocations", "SocialProxApp"),
        Action("notifyUser", NMU),
        Action("notifyFriend", "NMF"),
        Action("startItin", "NMF"),
    ]
    adversarial = Scenario(
        model=model,
        environment=ENV_BOTH_TRUE,
        scripts=(
            im_script(),
            ScriptSpec(
                role=SPS,
                actions=tuple(adversarial_main),
                injections=(Injection(after=2, task="startItin", target=NMU),),
            ),
        ),
        mode="inorder",
    )
    save_scenario(adversarial, FIXTURES / "scenario_adversarial.json")

    share_disabled = Scenario(
        model=model,
        environment=ENV_SHARE_DISABLED,
        scripts=(ScriptSpec(role=IM, actions=(Action("getUserPref", UMS),)),),
        mode="inorder",
    )
    save_scenario(share_disabled, FIXTURES / "scenario_share_disabled.json")

    print(f"fixtures written to {FIXTURES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
