"""Physics and map invariants for the voxel world."""

from collections import defaultdict, deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxhunt.world import (
    Action,
    AgentState,
    BugRegion,
    GoalRegion,
    MapInvariantError,
    MovingPlatform,
    Physics,
    SOLID,
    CLIMBABLE,
    EMPTY,
    MISSING_COLLISION,
    INFINITE_JUMP_GLITCH,
    UNINTENDED_CLIMBABLE,
    PhysicsError,
    VoxelMap,
    platform_offset,
    play_script,
)

from .conftest import flat_map
from .oracles import (
    ADJACENT_8,
    Env,
    ScanPhysics,
    explore_states,
    explore_transitions,
    outcomes,
    step_states,
)


A = Action


def test_action_set_has_exactly_ten_members():
    assert len(Action) == 10
    assert {a.name for a in Action} == {
        "MOVE_N", "MOVE_S", "MOVE_E", "MOVE_W",
        "MOVE_NE", "MOVE_NW", "MOVE_SE", "MOVE_SW", "JUMP", "WAIT",
    }


class TestMapValidation:
    def test_minimal_map_with_floor_is_valid(self):
        vox = np.zeros((3, 3, 3), dtype=np.uint8)
        vox[:, 0, :] = SOLID
        m = VoxelMap(name="t", dims=(3, 3, 3), voxels=vox, spawn=(1, 1, 1))
        m.validate()
        assert int((m.voxels == SOLID).sum()) == 9

    def test_goal_out_of_bounds_rejected(self):
        vox = np.zeros((3, 3, 3), dtype=np.uint8)
        vox[:, 0, :] = SOLID
        m = VoxelMap(
            name="t", dims=(3, 3, 3), voxels=vox, spawn=(1, 1, 1),
            goals=[GoalRegion(id=0, voxels=frozenset({(5, 1, 1)}))],
        )
        with pytest.raises(MapInvariantError, match="out of bounds"):
            m.validate()

    def test_spawn_needs_support(self):
        vox = np.zeros((3, 3, 3), dtype=np.uint8)
        m = VoxelMap(name="t", dims=(3, 3, 3), voxels=vox, spawn=(1, 2, 1))
        with pytest.raises(MapInvariantError, match="support"):
            m.validate()

    def test_bug_semantics_enforced(self):
        vox = np.zeros((3, 3, 3), dtype=np.uint8)
        vox[:, 0, :] = SOLID
        m = VoxelMap(
            name="t", dims=(3, 3, 3), voxels=vox, spawn=(1, 1, 1),
            bugs=[BugRegion(kind=MISSING_COLLISION, voxels=frozenset({(0, 1, 0)}))],
        )
        with pytest.raises(MapInvariantError, match="semantic class"):
            m.validate()

    def test_reserved_agent_code_rejected(self):
        vox = np.zeros((3, 3, 3), dtype=np.uint8)
        vox[:, 0, :] = SOLID
        vox[2, 2, 2] = 3
        m = VoxelMap(name="t", dims=(3, 3, 3), voxels=vox, spawn=(1, 1, 1))
        with pytest.raises(MapInvariantError, match="reserved"):
            m.validate()

    def test_bundled_area1_contents(self, area1):
        assert len(area1.goals) == 1
        assert len(area1.bugs) == 2
        assert len(area1.platforms) == 1
        assert {b.kind for b in area1.bugs} == {MISSING_COLLISION, INFINITE_JUMP_GLITCH}


class TestReset:
    def test_reset_puts_agent_at_spawn(self, area1):
        env = Env(area1)
        s = env.reset()
        assert s.pos == area1.spawn
        assert s.grounded and s.double_jump_available and s.jump_ticks == 0

    def test_reset_deterministic(self, area1):
        env = Env(area1)
        assert env.reset(seed=3) == env.reset(seed=3)


class TestStepMechanics:
    def test_free_move_keeps_grounded(self, flat5):
        env = Env(flat5)
        env.reset()
        res = env.step(A.MOVE_N)
        assert res.state.pos == (2, 1, 3)
        assert res.state.grounded
        assert res.state.last_disp == (0, 0, 1)

    def test_blocked_move_is_noop(self, flat5):
        env = Env(flat5)
        env.reset()
        for _ in range(5):
            res = env.step(A.MOVE_W)  # runs into the world boundary
        assert res.state.pos == (0, 1, 2)

    def test_jump_rises_two_then_falls_one_per_tick(self, flat5):
        env = Env(flat5)
        env.reset()
        ys = [env.step(a).state.pos[1] for a in [A.JUMP, A.WAIT, A.WAIT, A.WAIT]]
        assert ys == [2, 3, 2, 1]

    def test_double_jump_consumes_flag(self):
        env = Env(flat_map(dims=(5, 8, 5)))
        env.reset()
        env.step(A.JUMP)
        env.step(A.WAIT)
        res = env.step(A.JUMP)  # airborne, second jump
        assert not res.state.double_jump_available
        # apex with delayed second press is +4
        res = env.step(A.WAIT)
        assert res.state.pos[1] == 5

    def test_missing_collision_is_passable_but_observed_solid(self, area1):
        env = Env(area1)
        env.reset()
        for _ in range(6):
            res = env.step(A.MOVE_E)
        assert res.state.pos == (10, 1, 6)  # inside the wall column
        assert area1.voxels[10, 1, 6] == SOLID
        assert MISSING_COLLISION in res.bug_kinds
        # with bugs disabled the same cell blocks
        env2 = Env(area1, bugs_enabled=False)
        env2.reset()
        for _ in range(6):
            res2 = env2.step(A.MOVE_E)
        assert res2.state.pos == (9, 1, 6)

    def test_infinite_jump_glitch_recharges_double_jump(self, area1):
        env = Env(area1)
        env.reset()
        for a in [A.MOVE_SE] * 4 + [A.MOVE_E]:
            res = env.step(a)
        assert res.state.pos == (9, 1, 2)  # inside the glitch column
        assert INFINITE_JUMP_GLITCH in res.bug_kinds
        ys = [env.step(A.JUMP).state.pos[1] for _ in range(8)]
        assert ys == [2, 3, 4, 5, 6, 7, 8, 9]  # net ascent 8 voxels, one per tick

    def test_glitch_allows_ten_plus_voxel_ascent(self):
        # airborne agent with the recharge glitch active can chain jumps freely
        m = flat_map(dims=(3, 16, 3), spawn=(1, 1, 1))
        glitch = frozenset((1, y, 1) for y in range(1, 15))
        m.bugs.append(BugRegion(kind=INFINITE_JUMP_GLITCH, voxels=glitch))
        env = Env(m)
        env.reset()
        start_y = env.state.pos[1]
        for _ in range(10):
            res = env.step(A.JUMP)
        assert res.state.pos[1] - start_y >= 10

    def test_goal_reward_per_tick_inside(self, corridor):
        env = Env(corridor, episode_length=40)
        env.reset()
        total = 0.0
        goal_ticks = 0
        for a in [A.MOVE_E] * 9 + [A.WAIT] * 5:
            res = env.step(a)
            total += res.r_e
            goal_ticks += 1 if res.goal_ids else 0
        assert goal_ticks > 0
        assert total == 10.0 * goal_ticks

    def test_done_exactly_at_episode_length(self, flat5):
        env = Env(flat5, episode_length=3)
        env.reset()
        assert not env.step(A.WAIT).done
        assert not env.step(A.WAIT).done
        assert env.step(A.WAIT).done


class TestClimbing:
    def test_attach_hold_and_ascend(self, area2):
        env = Env(area2)
        env.reset()
        for a in [A.MOVE_N] * 2 + [A.MOVE_E] * 2:
            env.step(a)
        res = env.step(A.MOVE_E)  # blocked by the climbable strip
        assert res.state.pos == (4, 1, 6)
        assert res.state.climbing
        res = env.step(A.JUMP)
        assert res.state.pos[1] == 2 and res.state.climbing
        res = env.step(A.WAIT)
        assert res.state.pos[1] == 3 and res.state.climbing  # holds, then keeps climbing

    def test_climbing_clears_away_from_wall(self, area2):
        env = Env(area2)
        env.reset()
        for a in [A.MOVE_N] * 2 + [A.MOVE_E] * 2 + [A.MOVE_E]:
            env.step(a)
        res = env.step(A.MOVE_W)  # detach horizontally
        assert not res.state.climbing

    def test_unintended_climbable_counts_as_bug_use(self, area2):
        env = Env(area2)
        env.reset()
        for a in [A.MOVE_S] * 3 + [A.MOVE_E] * 2:
            res = env.step(a)
        assert res.state.pos == (4, 1, 1)
        res = env.step(A.MOVE_E)  # attach to the unintended climbable strip
        assert res.state.climbing
        assert UNINTENDED_CLIMBABLE in res.bug_kinds
        # with bugs off the same wall cell does not hold the agent
        env2 = Env(area2, bugs_enabled=False)
        env2.reset()
        for a in [A.MOVE_S] * 3 + [A.MOVE_E] * 2:
            env2.step(a)
        res2 = env2.step(A.MOVE_E)
        assert not res2.state.climbing


class TestPlatform:
    def test_offset_examples(self):
        p = MovingPlatform(footprint=((0, 0, 0),), axis="x", amplitude=3, period=12)
        assert platform_offset(p, 0) == 0
        assert platform_offset(p, 6) == 3
        assert platform_offset(p, 9) == 1  # 1.5 truncated toward zero
        assert platform_offset(p, 12) == 0

    def test_offset_pure_function(self):
        p = MovingPlatform(footprint=((0, 0, 0),), axis="x", amplitude=2, period=8)
        series = [platform_offset(p, t) for t in range(32)]
        assert series[:8] * 4 == series

    def test_rider_is_carried(self):
        vox = np.zeros((8, 6, 3), dtype=np.uint8)
        vox[:, 0, :] = SOLID
        vox[1, 1, 1] = SOLID  # block the spawn stands on
        m = VoxelMap(
            name="ride", dims=(8, 6, 3), voxels=vox, spawn=(1, 2, 1),
            platforms=[MovingPlatform(footprint=((2, 1, 1),), axis="x", amplitude=3, period=12)],
        )
        env = Env(m)
        env.reset()
        res = env.step(A.MOVE_E)  # step across onto the platform top
        assert res.state.pos == (2, 2, 1)
        assert res.state.grounded
        xs = [env.step(A.WAIT).state.pos for _ in range(5)]
        # the rider follows the platform as it shuttles east
        assert xs[-1] == (2 + platform_offset(m.platforms[0], 6), 2, 1)
        assert all(p[1] == 2 for p in xs)

    def test_elevator_carries_up_and_down(self):
        vox = np.zeros((3, 8, 3), dtype=np.uint8)
        vox[:, 0, :] = SOLID
        vox[1, 0, 1] = EMPTY  # pit cell under the elevator shaft keeps footprint clear
        m = VoxelMap(
            name="lift", dims=(3, 8, 3), voxels=vox, spawn=(1, 1, 1),
            platforms=[MovingPlatform(footprint=((1, 0, 1),), axis="y", amplitude=4, period=16)],
        )
        env = Env(m)
        env.reset()
        ys = [env.step(A.WAIT).state.pos[1] for _ in range(16)]
        assert max(ys) == 5  # rode up with the platform (top at y=4)
        assert ys[-1] == 1  # and back down


class TestTrajectories:
    def test_empty_script_single_state(self, area1):
        traj = play_script(area1, [])
        assert len(traj.states) == 1 and traj.positions == [area1.spawn]

    def test_bundled_demo_reaches_goal_without_bugs(self, area1, area1_demo_paths):
        from voxhunt.mapio import load_demo_script

        name, goal, actions = load_demo_script(area1_demo_paths[0])
        assert name == area1.name and goal == 0
        traj = play_script(area1, actions)
        assert traj.reached_goal
        assert traj.bug_regions_entered == set()

    def test_replay_bit_identical(self, area1):
        rng = np.random.default_rng(0)
        actions = [Action(int(a)) for a in rng.integers(0, 10, size=60)]
        t1 = play_script(area1, actions)
        t2 = play_script(area1, actions)
        assert t1.positions == t2.positions
        assert t1.states == t2.states

    def test_reward_equals_ten_times_goal_ticks(self, area1):
        rng = np.random.default_rng(5)
        actions = [Action(int(a)) for a in rng.integers(0, 10, size=100)]
        traj = play_script(area1, actions)
        assert sum(traj.r_e) == 10.0 * sum(1 for f in traj.goal_flags[1:] if f)


@st.composite
def action_sequences(draw):
    return draw(st.lists(st.sampled_from(list(Action)), min_size=1, max_size=120))


class TestProperties:
    @given(actions=action_sequences())
    @settings(max_examples=60, deadline=None)
    def test_containment_and_state_invariants(self, actions):
        m = None
        from voxhunt.mapio import load_fixture_map

        for name in ("testmap_area1", "testmap_area2"):
            m = load_fixture_map(name)
            env = Env(m)
            env.reset()
            phys = env.physics
            ref = ScanPhysics(m)
            for t, a in enumerate(actions):
                res = env.step(a)
                s = res.state
                x, y, z = s.pos
                assert m.in_bounds(s.pos), f"{name}: out of bounds at step {t}"
                assert not phys.colliding(s.pos, t + 1), f"{name}: inside solid at step {t}"
                if s.grounded:
                    assert phys.colliding((x, y - 1, z), t + 1)
                if s.climbing:
                    assert any(ref.climbable((x + dx, y, z + dz)) for dx, dz in ADJACENT_8)

    @given(actions=action_sequences())
    @settings(max_examples=30, deadline=None)
    def test_gravity_totality(self, actions):
        from voxhunt.mapio import load_fixture_map

        m = load_fixture_map("testmap_area2")  # no platforms: static support
        env = Env(m, episode_length=len(actions) + m.dims[1] + 2)
        env.reset()
        for a in actions:
            res = env.step(a)
        s = res.state
        if s.jump_ticks == 0 and not s.climbing and not s.grounded:
            for _ in range(m.dims[1]):
                res = env.step(Action.WAIT)
                if res.state.grounded:
                    break
            assert res.state.grounded


class TestBugAsymmetry:
    def test_mini_map_shortcut_only_with_bugs(self):
        # 1-thick wall fully dividing a corridor, with a missing-collision gap
        vox = np.zeros((7, 5, 3), dtype=np.uint8)
        vox[:, 0, :] = SOLID
        vox[3, 1:5, :] = SOLID
        hole = frozenset({(3, 1, z) for z in range(3)})
        m = VoxelMap(
            name="mini", dims=(7, 5, 3), voxels=vox, spawn=(1, 1, 1),
            bugs=[BugRegion(kind=MISSING_COLLISION, voxels=hole)],
        )
        pos_on, _, _ = explore_states(ScanPhysics(m, bugs_enabled=True))
        pos_off, _, _ = explore_states(ScanPhysics(m, bugs_enabled=False))
        assert hole <= pos_on
        assert not (hole & pos_off)
        assert (5, 1, 1) in pos_on and (5, 1, 1) not in pos_off


def assert_steps_match_scan(vmap, bugs_enabled):
    """Step every state the scan oracle reaches with all 10 actions, in one
    batch per platform phase, and compare each agent, read from the batch's
    Replay by the ``outcomes`` adapter, with the oracle's whole return tuple.
    A step the oracle squeezes is taken as a one-agent batch and must raise
    the oracle's message. Returns the oracle and the squeezed
    (state, phase, action, error) steps."""
    ref = ScanPhysics(vmap, bugs_enabled)
    physics = Physics(vmap, bugs_enabled)
    batches, squeezed = defaultdict(list), []
    for s, phase, a, out in explore_transitions(ref):
        if isinstance(out, PhysicsError):
            squeezed.append((s, phase, a, out))
        else:
            batches[phase].append((s, a, out))
    for phase, rows in batches.items():
        before = [s for s, _, _ in rows]
        rec = step_states(physics, before, [a for _, a, _ in rows], phase)
        assert outcomes(physics, before, rec, phase) == [out for _, _, out in rows], phase
    for s, phase, a, out in squeezed:
        with pytest.raises(PhysicsError) as exc:
            step_states(physics, [s], [a], phase)
        assert str(exc.value) == str(out)
    return ref, batches, squeezed


def two_platform_map():
    """A period-4 shuttle along x and a period-6 lift along y (phase period
    12); a ceiling over the lift squeezes a rider at the top."""
    vox = np.zeros((7, 7, 7), dtype=np.uint8)
    vox[:, 0, :] = SOLID
    vox[5, 5:, 5] = SOLID
    return VoxelMap(
        name="two_platforms", dims=(7, 7, 7), voxels=vox, spawn=(1, 1, 1),
        goals=[GoalRegion(id=0, voxels=frozenset({(6, 1, 1)}))],
        platforms=[
            MovingPlatform(footprint=((2, 1, 3),), axis="x", amplitude=2, period=4),
            MovingPlatform(footprint=((5, 1, 5),), axis="y", amplitude=3, period=6),
        ],
    )


class TestStepTables:
    """``Physics.step`` steps a batch from tables built once per map; the
    scan-based one-agent step in ``tests/oracles.py`` is the reference."""

    @pytest.mark.parametrize("bugs_enabled", [True, False])
    @pytest.mark.parametrize("name", ["area1", "area2", "corridor"])
    def test_every_reachable_step_matches_scan(self, name, bugs_enabled, request):
        _, _, squeezed = assert_steps_match_scan(request.getfixturevalue(name), bugs_enabled)
        assert squeezed == []

    def test_two_platforms_carry_push_and_squeeze(self):
        m = two_platform_map()
        physics = Physics(m)
        assert physics.phase_period == 12
        ref, batches, squeezed = assert_steps_match_scan(m, True)
        assert ref.carried > 0 and ref.pushed > 0 and squeezed
        # in a larger batch the error names the squeezed agent
        s, phase, a, _ = squeezed[0]
        rows = batches[phase][:3]
        before = [row[0] for row in rows] + [s]
        with pytest.raises(PhysicsError) as exc:
            step_states(physics, before, [row[1] for row in rows] + [a], phase)
        assert exc.value.agent == 3
        assert str(exc.value) == f"agent 3 at {s.pos} squeezed by platform at tick {phase}"


def squeeze_script(vmap):
    """A shortest script after which one more Wait squeezes the agent,
    found by a breadth-first search over the scan oracle."""
    ref = ScanPhysics(vmap)
    start = ref.initial_state()
    seen, queue = {(start, 0)}, deque([(start, 0, [])])
    while queue:
        s, phase, script = queue.popleft()
        try:
            ref.step(s, Action.WAIT, phase)
        except PhysicsError:
            return script
        for a in Action:
            try:
                nxt = (ref.step(s, a, phase)[0], (phase + 1) % ref.phase_period)
            except PhysicsError:
                continue
            if nxt not in seen:
                seen.add(nxt)
                queue.append((*nxt, script + [int(a)]))
    raise AssertionError("no squeeze reachable")


class TestReplay:
    def test_ragged_scripts_match_one_script_calls(self, area1):
        rng = np.random.default_rng(3)
        scripts = [[int(a) for a in rng.integers(0, 10, size=n)] for n in (5, 0, 60, 17, 128, 60)]
        replay = Physics(area1).replay(scripts)
        ref = ScanPhysics(area1)
        for i, script in enumerate(scripts):
            traj = replay.trajectory(i)
            assert traj == play_script(area1, script)
            states = [ref.initial_state()]
            for t, a in enumerate(script):
                states.append(ref.step(states[-1], a, t)[0])
            assert traj.states == states

    def test_rows_past_a_script_end_repeat_its_last_state(self, area1):
        rng = np.random.default_rng(4)
        lengths = (0, 5, 60, 128)
        scripts = [[int(a) for a in rng.integers(0, 10, size=n)] for n in lengths]
        replay = Physics(area1).replay(scripts)
        assert replay.cell.shape == (129, 4)
        for i, n in enumerate(lengths):
            for a in replay.states():
                assert (a[n + 1 :, i] == a[n, i]).all()
            assert (replay.actions[n:, i] == int(Action.WAIT)).all()
            assert not replay.bugs[n:, i].any()

    def test_matrix_with_lengths_plays_as_the_scripts_do(self, area1):
        rng = np.random.default_rng(5)
        scripts = [[int(a) for a in rng.integers(0, 10, size=n)] for n in (5, 0, 60, 17)]
        matrix = rng.integers(0, 10, size=(64, len(scripts))).astype(np.uint8)
        for i, script in enumerate(scripts):
            matrix[: len(script), i] = script
        got = Physics(area1).replay(matrix, [len(s) for s in scripts])
        want = Physics(area1).replay(scripts)
        arrays = lambda r: (r.actions, r.bugs, *r.states())  # noqa: E731
        for a, b in zip(arrays(got), arrays(want)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("form", ["lists", "matrix"])
    @pytest.mark.parametrize(
        "action, dtype",  # 258 as int64 and 200 as uint8 would wrap in an int8 cast
        [(200, None), (-1, None), (2.7, None), (True, None), (258, np.int64), (200, np.uint8)],
    )
    def test_action_ids_checked_before_the_cast(self, area1, form, action, dtype):
        physics = Physics(area1)
        with pytest.raises(ValueError, match=r"^action ids must be ints in 0\.\.9$"):
            if form == "lists":
                physics.replay([[int(Action.WAIT), action if dtype is None else dtype(action)]])
            else:
                physics.replay(np.array([[action]], dtype=dtype), [1])

    def test_script_ending_under_the_squeezing_lift_is_frozen(self):
        m = two_platform_map()
        script = squeeze_script(m)
        longer = [int(Action.WAIT)] * (len(script) + 10)
        with pytest.raises(PhysicsError, match=r"^agent at .* squeezed"):
            play_script(m, script + [int(Action.WAIT)])
        with pytest.raises(PhysicsError) as exc:
            Physics(m).replay([longer, script + [int(Action.WAIT)]])
        assert exc.value.agent == 1 and str(exc.value).startswith("agent 1 at ")
        replay = Physics(m).replay([script, longer])
        assert replay.trajectory(0) == play_script(m, script)
        assert replay.trajectory(1) == play_script(m, longer)
