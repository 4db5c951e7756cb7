"""One way in: a broker node is wired in exactly one place.

Constructing a ``BrokerNode`` is the single builder for a broker's slice
of Figure 1; the facade does it for ``b0`` and the cluster runtime for
``b1..bN``. A second construction site is how the primary and its peers
drifted apart before, so — in the style of ``test_config_budget.py``,
but over the AST — this pins the number of call sites, keeps the
dispatcher's collaborators typed and installed through one method, and
checks on a live deployment that every node ends up wired alike.
"""

from __future__ import annotations

import ast
import inspect
import sys
import weakref
from pathlib import Path

import pytest

from repro.core.config import GarnetConfig
from repro.core.middleware import Garnet
from repro.obs.registry import MetricsRegistry
from repro.simnet.fixednet import FixedNetwork
from repro.transport import connect

SRC = Path(__file__).resolve().parent.parent / "src"
BUILDER = SRC / "repro" / "cluster" / "node.py"
LIVE_BROKER = SRC / "repro" / "transport" / "broker.py"
DISPATCHING = SRC / "repro" / "core" / "dispatching.py"
NODE_SERVICES = (
    "DispatchingService",
    "Orphanage",
    "Broker",
    "AdmissionController",
)


def _call_sites(class_name: str) -> list[Path]:
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = (
                callee.id
                if isinstance(callee, ast.Name)
                else getattr(callee, "attr", None)
            )
            if name == class_name:
                sites.append(path)
    return sites


def _dispatching_service() -> ast.ClassDef:
    for node in ast.parse(DISPATCHING.read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name == "DispatchingService":
            return node
    raise AssertionError("DispatchingService not found")


@pytest.mark.parametrize("class_name", NODE_SERVICES)
def test_node_services_are_constructed_by_the_one_builder(class_name):
    assert _call_sites(class_name) == [BUILDER]


def test_dispatcher_has_no_setter_hooks():
    setters = [
        node.name
        for node in ast.walk(ast.parse(DISPATCHING.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name.startswith("set_")
    ]
    assert setters == []


def test_dispatcher_collaborators_are_typed():
    untyped = []
    for node in ast.walk(_dispatching_service()):
        if isinstance(node, ast.AnnAssign):
            annotation, label = node.annotation, ast.unparse(node.target)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotation, label = node.annotation, node.arg
        else:
            continue
        names = {
            part.id for part in ast.walk(annotation) if isinstance(part, ast.Name)
        }
        if "Any" in names:
            untyped.append(label)
    assert untyped == []


def test_one_connect_door_per_transport():
    assert list(inspect.signature(Garnet.connect).parameters) == [
        "self",
        "name",
        "token",
        "permissions",
        "heartbeat_period",
        "broker",
    ]
    assert list(inspect.signature(connect).parameters) == [
        "url",
        "name",
        "timeout",
        "reconnect",
        "keepalive",
    ]
    assert not (SRC / "repro" / "core" / "connect.py").exists()


def test_live_broker_keeps_the_data_path_off_the_simulated_bus():
    """Arrivals enter the dispatcher by a call and deliveries leave it
    by one: the live broker itself never posts to the fixed network."""
    tree = ast.parse(LIVE_BROKER.read_text())
    bus_sends = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "send"
        and "network" in ast.unparse(node.func.value)
    ]
    assert bus_sends == []
    names = {
        node.id if isinstance(node, ast.Name) else node.asname or node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.alias))
    }
    assert "DISPATCH_INBOX" not in names


# ----------------------------------------------------------------------
# Node parity: what the builder promises, observed on a deployment
# ----------------------------------------------------------------------
def test_off_cluster_deployment_is_one_node():
    deployment = Garnet(config=GarnetConfig(publish_location_stream=False))
    [node] = deployment.nodes
    assert node.name == "b0"
    assert node.dispatcher is deployment.dispatcher
    assert node.orphanage is deployment.orphanage
    assert node.broker is deployment.broker
    assert deployment.orphanages() == [deployment.orphanage]
    assert deployment.connect("app").home_broker == "b0"


def test_every_node_is_wired_like_the_primary():
    deployment = Garnet(
        config=GarnetConfig(
            publish_location_stream=False,
            cluster_enabled=True,
            cluster_brokers=3,
            qos_ingress_rate=100.0,
            qos_consumer_queue=8,
            store_enabled=True,
            fanout_enabled=True,
        )
    )
    nodes = deployment.nodes
    assert [node.name for node in nodes] == ["b0", "b1", "b2"]
    assert nodes == list(deployment.cluster.nodes.values())
    assert nodes[0].dispatcher is deployment.dispatcher
    assert deployment.qos.admission is nodes[0].admission
    for node in nodes:
        dispatcher = node.dispatcher
        # Shared by every node: one delivery manager, one store tap,
        # one fan-out runtime.
        assert dispatcher._delivery is deployment.qos.delivery is not None
        assert dispatcher._store is deployment.store_tap is not None
        assert dispatcher._fanout is deployment.fanout is not None
        # Per node: its own admission controller, router and guard.
        assert dispatcher._admission is node.admission is not None
        assert dispatcher._cluster is deployment.cluster.routers[node.name]
        assert dispatcher._route_guard == node.broker._route_guard
    assert len({id(node.admission) for node in nodes}) == len(nodes)
    assert len({id(node.orphanage) for node in nodes}) == len(nodes)
    assert len({node.dispatch_inbox for node in nodes}) == len(nodes)


# ----------------------------------------------------------------------
# The live transport says each protocol fact once
# ----------------------------------------------------------------------
LIVE_CLIENT = SRC / "repro" / "transport" / "client.py"


def _live_broker_methods() -> list[ast.FunctionDef]:
    for node in ast.parse(LIVE_BROKER.read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name == "LiveBroker":
            return [
                member
                for member in node.body
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    raise AssertionError("LiveBroker not found")


def test_udp_peers_is_written_by_bind_and_unbind_only():
    """One attach, one detach: every other path goes through them."""
    writers = set()
    for method in _live_broker_methods():
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("pop", "popitem", "clear", "update")
            ):
                targets = [node.func]
            else:
                continue
            if any("_udp_peers" in ast.unparse(target) for target in targets):
                writers.add(method.name)
    assert writers == {"_bind", "_unbind"}  # (__init__ declares it)


def test_live_handlers_see_checked_fields_never_the_raw_body():
    """``_handle_frame`` runs the body table first; a handler that reads
    ``body[...]`` or ``body.get(...)`` would be a check that is missing."""
    handlers = [m for m in _live_broker_methods() if m.name.startswith("_on_")]
    assert len(handlers) >= 10
    offenders = []
    for method in handlers:
        assert "body" not in {arg.arg for arg in method.args.args}, method.name
        for node in ast.walk(method):
            value = None
            if isinstance(node, ast.Subscript):
                value = node.value
            elif isinstance(node, ast.Attribute) and node.attr == "get":
                value = node.value
            if isinstance(value, ast.Name) and value.id == "body":
                offenders.append((method.name, node.lineno))
    assert offenders == []


def test_live_client_builds_each_frame_in_one_place():
    tree = ast.parse(LIVE_CLIENT.read_text())
    # As a body key, that is; LiveSessionStats has a counter of the name.
    handshake_literals = [
        key.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
        for key in node.keys
        if isinstance(key, ast.Constant) and key.value == "batch_datagrams"
    ]
    messages_built = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "DataMessage"
    ]
    assert len(handshake_literals) == 1, handshake_literals
    assert len(messages_built) == 1, messages_built


def test_live_broker_reads_one_clock():
    assert "_loop.time()" not in LIVE_BROKER.read_text()


def test_the_one_implementer_transport_seam_stays_deleted():
    base = SRC / "repro" / "transport" / "base.py"
    assert "class Transport" not in base.read_text()


# ----------------------------------------------------------------------
# One broadcast path, no third-party import, a substrate without Garnet
# ----------------------------------------------------------------------
WIRELESS = SRC / "repro" / "simnet" / "wireless.py"


def test_src_imports_only_the_standard_library_and_itself():
    allowed = sys.stdlib_module_names | {"repro"}
    foreign = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [
                (str(path.relative_to(SRC)), module)
                for module in modules
                if module.partition(".")[0] not in allowed
            ]
    assert foreign == []


def test_the_medium_schedules_from_one_function():
    """A transmission is one kernel event: ``broadcast`` hands all of its
    copies to ``_deliver_batch``; a second scheduling site would be a
    second delivery path."""
    for node in ast.parse(WIRELESS.read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name == "WirelessMedium":
            medium = node
            break
    else:
        raise AssertionError("WirelessMedium not found")
    schedulers = [
        member.name
        for member in medium.body
        if isinstance(member, ast.FunctionDef)
        for node in ast.walk(member)
        if isinstance(node, ast.Attribute)
        and node.attr in ("schedule", "schedule_at")
    ]
    assert schedulers == ["broadcast"]


def test_the_simulation_substrate_imports_no_middleware():
    """``repro.simnet`` is the world Garnet runs in: the medium knows
    tags, never Garnet framing, and the kernel knows no service."""
    offenders = [
        (path.name, module)
        for path in sorted((SRC / "repro" / "simnet").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        for module in (
            [alias.name for alias in node.names]
            if isinstance(node, ast.Import)
            else [node.module or ""]
            if isinstance(node, ast.ImportFrom)
            else []
        )
        if module == "repro.core" or module.startswith("repro.core.")
    ]
    assert offenders == []


def test_kernel_heap_entries_compare_in_c():
    """The queue holds ``(time, seq, handle)``; ``seq`` is unique, so a
    handle is never compared and must not define an ordering."""
    kernel = SRC / "repro" / "simnet" / "kernel.py"
    for node in ast.parse(kernel.read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name == "EventHandle":
            methods = {
                member.name
                for member in node.body
                if isinstance(member, ast.FunctionDef)
            }
            break
    else:
        raise AssertionError("EventHandle not found")
    assert methods.isdisjoint({"__lt__", "__le__", "__gt__", "__ge__"})


# ----------------------------------------------------------------------
# One fault vocabulary
# ----------------------------------------------------------------------
FAULT_PLAN = SRC / "repro" / "faults" / "plan.py"


def _fault_kinds() -> dict[str, Path]:
    """Every ``FaultEvent`` subclass under ``src/`` -> where it is defined."""
    classes = [
        (
            node.name,
            {ast.unparse(base).rpartition(".")[2] for base in node.bases},
            path,
        )
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    ]
    kinds: dict[str, Path] = {}
    grew = True
    while grew:
        grew = False
        for name, bases, path in classes:
            if name not in kinds and bases & (set(kinds) | {"FaultEvent"}):
                kinds[name] = path
                grew = True
    return kinds


def test_every_fault_kind_is_defined_in_the_plan():
    kinds = _fault_kinds()
    assert {"BrokerCrash", "DropBurst", "ConnectionReset"} <= set(kinds)
    elsewhere = {name: path for name, path in kinds.items() if path != FAULT_PLAN}
    assert elsewhere == {}


def test_the_transport_never_branches_on_a_fault_kind():
    """The proxy pulls levers the injector hands it; it does not look
    at which kind of window is open."""
    kinds = set(_fault_kinds()) | {"FaultEvent"}
    offenders = [
        (path.name, node.lineno)
        for path in sorted((SRC / "repro" / "transport").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and kinds
        & {part.id for part in ast.walk(node.args[1]) if isinstance(part, ast.Name)}
    ]
    assert offenders == []


# ----------------------------------------------------------------------
# Code that no journey workload, paper-claim bench, example or console
# script reached stays deleted
# ----------------------------------------------------------------------
def test_unreached_modules_stay_deleted():
    """The radio capture, the twin view and the two dump CLIs; and
    ``repro.tools`` keeps only its console script."""
    repro = SRC / "repro"
    assert not (repro / "simnet" / "capture.py").exists()
    assert not (repro / "twins").exists()
    tools = {path.stem for path in (repro / "tools").glob("*.py")}
    assert tools == {"__init__", "bench_report"}


def test_test_only_surfaces_stay_deleted():
    """Each ran only under its own tests: the inter-broker link batcher,
    CRC-32, the transmitter array's area and flood broadcasts, the
    registry's emptiness probe, the broker's RPC surface, the
    deployment's second orphan catch-up door (``subscribe(replay=
    'orphans')`` is the one), the codec's second full parse and its
    frame-size query, and the two message writers only a relaying sensor
    called."""
    from repro.core.pubsub import Broker

    gone = {
        "LinkBatcher",
        "crc32_ieee",
        "broadcast_to_area",
        "is_empty",
        "claim_orphans",
        "decode_prefix",
        "encoded_size",
        "with_relay_hop",
        "with_replaced_extension",
    }
    defined = [
        (str(path.relative_to(SRC)), node.name)
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        and node.name in gone
    ]
    assert defined == []
    assert [name for name in vars(Broker) if name.startswith("rpc_")] == []


def test_metrics_registry_keeps_no_class_level_mutable_state():
    """Registries are per deployment; a class-level list or set would be
    shared by every one of them."""
    shared = [
        name
        for name, value in vars(MetricsRegistry).items()
        if not name.startswith("__")
        and isinstance(value, (list, dict, set, weakref.WeakSet))
    ]
    assert shared == []


def test_fixed_network_rpc_is_call_sync_only():
    assert not hasattr(FixedNetwork, "call")
    assert hasattr(FixedNetwork, "call_sync")


# ----------------------------------------------------------------------
# One per-stream dedupe
# ----------------------------------------------------------------------
IDS = SRC / "repro" / "util" / "ids.py"
#: The packages that dedupe streams. The firmware's request-id memo in
#: ``repro.sensors`` is not a stream dedupe.
STREAM_PACKAGES = ("core", "cluster", "store", "transport")


def test_one_sequence_window_and_no_second_dedupe():
    windows = [
        path
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name == "SequenceWindow"
    ]
    assert windows == [IDS]
    # Imported or reached as ``collections.OrderedDict``.
    ordered = [
        (str(path.relative_to(SRC)), node.lineno)
        for package in STREAM_PACKAGES
        for path in sorted((SRC / "repro" / package).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.ImportFrom, ast.Attribute))
        and "OrderedDict"
        in (
            {alias.name for alias in node.names}
            if isinstance(node, ast.ImportFrom)
            else {node.attr}
        )
    ]
    assert ordered == []


# ----------------------------------------------------------------------
# One backlog, one replay merge
# ----------------------------------------------------------------------
BACKLOG = SRC / "repro" / "util" / "backlog.py"
#: The modules holding data for an absent consumer: each builds its
#: bounded buffers from ``Backlog``, never from a bare deque.
BACKLOG_OWNERS = (
    "core/orphanage.py",
    "qos/quarantine.py",
    "transport/broker.py",
    "cluster/coordinator.py",
)


def test_one_backlog_and_no_hand_rolled_bound():
    backlogs = [
        path
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name == "Backlog"
    ]
    assert backlogs == [BACKLOG]
    owners = {SRC / "repro" / owner for owner in BACKLOG_OWNERS}
    assert [path for path in _call_sites("deque") if path in owners] == []
    for owner in owners:
        assert "Backlog(" in owner.read_text(), owner


def test_both_replays_go_through_the_one_merge():
    session = ast.parse((SRC / "repro" / "core" / "session.py").read_text())
    functions = {
        node.name: node
        for node in ast.walk(session)
        if isinstance(node, ast.FunctionDef)
    }

    def called(function: ast.FunctionDef) -> set[str]:
        return {
            node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))
        }

    for replay in ("_replay_orphans", "_replay_history"):
        assert "merge_replay" in called(functions[replay]), replay
    # The merge is the only place a replay is ordered.
    ordering = sorted(
        name
        for name, function in functions.items()
        if called(function) & {"sorted", "sort", "max"}
    )
    assert ordering == ["merge_replay"]


# ----------------------------------------------------------------------
# One subscription ledger per session
# ----------------------------------------------------------------------
SESSION = SRC / "repro" / "core" / "session.py"


def _classes(path: Path) -> dict[str, ast.ClassDef]:
    return {
        node.name: node
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }


def _methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)
    }


def _calls(function: ast.FunctionDef, name: str) -> bool:
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == name
        for node in ast.walk(function)
    )


def test_one_session_ledger_and_no_mirror_of_it():
    ledgers = [
        path
        for path in sorted(SRC.rglob("*.py"))
        if "SessionLedger" in _classes(path)
    ]
    assert ledgers == [SESSION]
    state = _classes(LIVE_BROKER)["_SessionState"]
    fields = {
        node.target.id
        for node in state.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    }
    assert fields & {"subscriptions", "advertised", "publisher_id"} == set()
    assigned = {
        node.attr
        for node in ast.walk(_classes(LIVE_CLIENT)["LiveSession"])
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
    }
    assert assigned & {"_subscriptions", "_advertised"} == set()


def test_every_reinstall_is_the_ledgers():
    """In-sim recovery, the live broker's revival of a persisted session
    and the client's fallback to HELLO all replay one ledger the one way:
    no other code under ``src/`` calls ``reinstall``."""
    session = _methods(_classes(SESSION)["GarnetSession"])
    revive = _methods(_classes(LIVE_BROKER)["LiveBroker"])["_revive_state"]
    dial = _methods(_classes(LIVE_CLIENT)["LiveSession"])["_dial_once"]
    assert _calls(session["_recover"], "reinstall")
    assert _calls(revive, "adopt") and _calls(session["adopt"], "reinstall")
    assert _calls(dial, "reinstall")
    callers = sorted(
        function.name
        for path in sorted(SRC.rglob("*.py"))
        for function in ast.walk(ast.parse(path.read_text()))
        if isinstance(function, ast.FunctionDef)
        and _calls(function, "reinstall")
    )
    assert callers == ["_dial_once", "_recover", "adopt"]


# ----------------------------------------------------------------------
# One Figure 2 wire image: every frame carries its CRC-16
# ----------------------------------------------------------------------
MESSAGE = SRC / "repro" / "core" / "message.py"


def _functions(path: Path) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef)
    }


def _arguments(function: ast.FunctionDef) -> set[str]:
    args = function.args
    return {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}


def test_the_crc_is_no_setting():
    """No codec, frame builder or live door takes a ``checksum`` argument,
    and nothing under ``src/`` keeps a ``_checksum`` attribute."""
    doors = {
        "MessageCodec": _methods(_classes(MESSAGE)["MessageCodec"]).get("__init__"),
        "common_frame": _functions(MESSAGE)["common_frame"],
        "LiveSession": _methods(_classes(LIVE_CLIENT)["LiveSession"])["__init__"],
        "connect": _functions(LIVE_CLIENT)["connect"],
    }
    taking = sorted(
        name
        for name, function in doors.items()
        if function is not None and "checksum" in _arguments(function)
    )
    assert taking == []
    keeping = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and node.attr == "_checksum"
    )
    assert keeping == []


# ----------------------------------------------------------------------
# One fast codec path per direction: the common frame is specialised,
# every other shape goes through the reference codec
# ----------------------------------------------------------------------
MIDDLEWARE = SRC / "repro" / "core" / "middleware.py"
SENSOR_NODE = SRC / "repro" / "sensors" / "node.py"


def _sensor_knobs(*knobs: str) -> list[tuple[str, str]]:
    """Which of ``knobs`` the two doors that build a sensor still take."""
    doors = {
        "Garnet.add_sensor": _methods(_classes(MIDDLEWARE)["Garnet"])["add_sensor"],
        "SensorNode.__init__": _methods(_classes(SENSOR_NODE)["SensorNode"])[
            "__init__"
        ],
    }
    return sorted(
        (name, knob)
        for name, function in doors.items()
        for knob in knobs
        if knob in _arguments(function)
    )


def test_no_sensor_stamps_its_frames():
    """``attach_timestamps`` put every data frame of a sensor through the
    reference encoder, and nothing under ``src/`` read the stamp."""
    assert _sensor_knobs("attach_timestamps") == []


def test_no_sensor_relays():
    """Garnet reads relayed frames (hop count, HOP_TRACE), but no simulated
    sensor forwards its neighbours' frames, and no root ever made one."""
    assert _sensor_knobs("relay", "max_relay_hops") == []


def test_only_the_reference_encoder_builds_a_bytearray():
    """The common frame is one ``struct`` pack plus the CRC; any other
    shape is the reference encoder's, so no second field-by-field
    encoder grows back beside it."""
    building = sorted(
        function.name
        for function in ast.walk(ast.parse(MESSAGE.read_text()))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        and function.name != "encode_reference"
        and any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "bytearray"
            for node in ast.walk(function)
        )
    )
    assert building == []
