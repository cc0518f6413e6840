package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"auditherm/internal/building"
	"auditherm/internal/control"
	"auditherm/internal/dataset"
	"auditherm/internal/mat"
	"auditherm/internal/occupancy"
	"auditherm/internal/sysid"
	"auditherm/internal/weather"
)

// ControlStudyResult is the closed-loop extension study: the paper
// stops at modeling ("a practical foundation for HVAC control"); this
// experiment takes that step and measures what the identified models
// buy in closed loop.
type ControlStudyResult struct {
	// Days is the simulated span per controller.
	Days int
	// Rows holds one result per controller.
	Rows []*control.LoopResult
	// SimplifiedSensors lists the representative sensor IDs the
	// simplified MPC observes.
	SimplifiedSensors []int
}

// ControlStudy runs three controllers over the same simulated weeks:
// the stock deadband thermostat logic, MPC on the full 27-sensor
// identified model, and MPC on the simplified model from the 2
// SMS-selected sensors.
//
// The MPC models are identified from a dedicated excitation trace
// (flow dither enabled), not from normal closed-loop operation: under
// the stock controller, flow follows temperature, so a model fit to
// that data learns a *positive* flow-to-temperature correlation and is
// useless for control synthesis. The dither breaks the feedback
// correlation and recovers the causal (negative) cooling response.
func ControlStudy(e *Env, days int) (*ControlStudyResult, error) {
	if days <= 0 {
		days = 7
	}
	// Identification experiment: a 6-week excitation trace.
	excCfg := e.Dataset.Config
	excCfg.Days = 42
	excCfg.Seed += 500
	excCfg.NumLongOutages = 1
	excCfg.NumShortOutages = 4
	excCfg.HVAC.ExcitationStd = 0.18
	excCfg.HVAC.ExcitationSeed = excCfg.Seed + 1
	excEnv, err := NewEnv(excCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: excitation trace: %w", err)
	}
	data, err := buildCoolingData(excEnv)
	if err != nil {
		return nil, err
	}
	trainWins := slices.Concat(excEnv.OccTrain, excEnv.OccValid)
	fullModel, err := sysid.Fit(data, trainWins, sysid.SecondOrder, sysid.DefaultOptions())
	if err != nil {
		return nil, err
	}
	// Sensor selection still comes from the original (non-excited)
	// deployment, as the paper's pipeline prescribes.
	sc, err := e.newSelectionContext(2)
	if err != nil {
		return nil, err
	}
	smsSel, err := e.smsSelection(sc)
	if err != nil {
		return nil, err
	}
	reps := flattenReps(smsSel)
	reducedData := data.SelectSensors(reps)
	reducedModel, err := sysid.Fit(reducedData, trainWins, sysid.SecondOrder, sysid.DefaultOptions())
	if err != nil {
		return nil, err
	}

	// Positions: the controllers read true temperatures at their
	// sensors; comfort is scored at every sensor location.
	var allPos, thermoPos []building.Point
	for _, sp := range e.Dataset.Sensors {
		allPos = append(allPos, sp.Pos)
		if sp.Thermostat {
			thermoPos = append(thermoPos, sp.Pos)
		}
	}
	repPos := make([]building.Point, len(reps))
	res := &ControlStudyResult{Days: days}
	for i, r := range reps {
		repPos[i] = e.Dataset.Sensors[r].Pos
		res.SimplifiedSensors = append(res.SimplifiedSensors, e.SensorID(r))
	}

	hv := e.Dataset.Config.HVAC
	mkMPC := func(model *sysid.Model) (*control.CoolingMPC, error) {
		return control.NewCoolingMPC(control.CoolingMPCConfig{
			Model:         model,
			NumVAVs:       hv.NumVAVs,
			Setpoint:      hv.Setpoint,
			EnergyWeight:  0.05,
			Horizon:       8,
			MinFlow:       hv.MinFlowPerVAV,
			MaxFlow:       hv.MaxFlowPerVAV,
			OnHour:        hv.OnHour,
			OffHour:       hv.OffHour,
			CoolSupply:    hv.CoolSupplyTemp,
			NeutralSupply: hv.NeutralSupplyTemp,
			// Reheat is left to the plant's morning schedule; planning
			// signed heat/cool through the linear model invites
			// mode-chatter at the setpoint boundary.
			HeatSupply: 0,
		})
	}
	mpcFull, err := mkMPC(fullModel)
	if err != nil {
		return nil, err
	}
	mpcReduced, err := mkMPC(reducedModel)
	if err != nil {
		return nil, err
	}

	// A fresh schedule/weather pair, deterministic but distinct from
	// the training trace (a genuine test deployment).
	start := time.Date(2013, time.May, 13, 0, 0, 0, 0, time.UTC) // a Monday
	occCfg := e.Dataset.Config.Occupancy
	occCfg.Seed += 1000
	sched, err := occupancy.Generate(start, start.AddDate(0, 0, days), occCfg)
	if err != nil {
		return nil, err
	}
	wCfg := e.Dataset.Config.Weather
	wCfg.Seed += 1000
	wm, err := weather.NewModel(wCfg)
	if err != nil {
		return nil, err
	}

	loop := control.LoopConfig{
		Building:         e.Dataset.Config.Building,
		Start:            start,
		Days:             days,
		SimStep:          time.Minute,
		DecisionStep:     e.Dataset.Config.GridStep,
		Schedule:         sched,
		Weather:          wm,
		ComfortPositions: allPos,
		Setpoint:         hv.Setpoint,
		NumVAVs:          hv.NumVAVs,
	}
	type runSpec struct {
		ctrl    control.Controller
		sensors []building.Point
	}
	runs := []runSpec{
		{control.DefaultDeadband(), thermoPos},
		{mpcFull, allPos},
		{mpcReduced, repPos},
	}
	names := []string{"deadband-thermostat", "mpc-full-27", "mpc-simplified-2"}
	for i, r := range runs {
		cfg := loop
		cfg.SensorPositions = r.sensors
		out, err := control.RunLoop(cfg, r.ctrl)
		if err != nil {
			return nil, fmt.Errorf("experiments: control run %s: %w", names[i], err)
		}
		out.Controller = names[i]
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// String renders the study.
func (r *ControlStudyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Control study: %d simulated days (simplified MPC observes sensors %v)\n",
		r.Days, r.SimplifiedSensors)
	fmt.Fprintf(&b, "%-22s %-12s %-14s %-12s %s\n",
		"controller", "comfortRMS", "discomfort%", "coolingKWh", "mean flow kg/s")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s %-12.2f %-14.1f %-12.1f %.2f\n",
			row.Controller, row.ComfortRMS, 100*row.DiscomfortFrac, row.CoolingKWh, row.MeanOccupiedFlow)
	}
	return b.String()
}

// buildCoolingData assembles the control-oriented identification data:
// outputs are the sensor temperatures, inputs are [cooling, occ,
// light, ambient] with cooling = totalFlow * (meanRoomTemp -
// supplyTemp) in kg/s*K. The physical cooling input keeps the
// identified response sign-correct across the plant's heating /
// neutral / cooling supply modes, which the paper's flow-only input
// (fine for prediction) cannot guarantee.
func buildCoolingData(e *Env) (sysid.Data, error) {
	n := e.Temps.Cols()
	supply, err := e.Dataset.Frame.Channel(dataset.ChannelSupply)
	if err != nil {
		return sysid.Data{}, err
	}
	nv := e.Dataset.Config.HVAC.NumVAVs
	inputs := mat.NewDense(4, n)
	allRows := make([]int, e.Temps.Rows())
	for i := range allRows {
		allRows[i] = i
	}
	for k := 0; k < n; k++ {
		var flow float64
		for v := 0; v < nv; v++ {
			flow += e.Inputs.At(v, k)
		}
		mean := nanMeanAt(e.Temps, allRows, k)
		cooling := flow * (mean - supply[k]) // NaN-propagating
		inputs.Set(0, k, cooling)
		inputs.Set(1, k, e.Inputs.At(nv, k))
		inputs.Set(2, k, e.Inputs.At(nv+1, k))
		inputs.Set(3, k, e.Inputs.At(nv+2, k))
	}
	return sysid.Data{Temps: e.Temps.Clone(), Inputs: inputs}, nil
}
