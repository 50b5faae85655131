"""Desk-scale closed loop: waiting-time-based adaptive signal control, slow
fake-vehicle injection over the message plane, and LSTM prediction-error
attack detection."""

__version__ = "0.1.0"

from .roadnet import (GeometryConfig, Heading, Movement, RoadNetwork,
                      build_arterial_network, upstream_feeders)
from .microsim import CarFollowingParams, TurnSplit, Vehicle, World, krauss_safe_speed
from .msgplane import (BsmRecord, FeatureSample, emit_bsm, feeder_streams,
                       node_stream_stats, sample_features)
from .atsc import SignalController, compute_aawt, select_green
from .attacker import (AttackConfig, AttackMode, ControllerAwarePolicy,
                       FixedRatePolicy, SlowPoisoningAttacker)
from .neuralnet import (LstmRegressor, NormalizationSpec, TrainingConfig,
                        adam_update, train)
from .detector import (DetectionThreshold, DetectorSpec, FeatureMode,
                       build_dataset, compute_threshold, detect,
                       detection_report, train_detector)
from .harness import ScenarioConfig, run_experiment, run_scenario, write_verdicts
