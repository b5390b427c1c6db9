package cluster

import "github.com/htacs/ata/internal/wire"

// The frame codec: reflection-free encoders and decoders for the RPC
// plane's Frame and FrameResult, built on internal/wire, whose package
// comment states the byte-identity and strict-subset rules. Mixed builds
// therefore still read each other's frames byte for byte. Each side keeps
// its encoding/json semantics on a decline: the node reads the first JSON
// value of a body as json.Decoder.Decode does (decodeFrame), the gateway
// the whole body as json.Unmarshal does (decodeFrameResult). The rare
// payloads — OpResult.Stats, Health, the snapshot document — always
// decline to encoding/json.

// appendFrame appends the JSON encoding of v, as json.Marshal writes it,
// when v is a *Frame or a *FrameResult. ok is false for any other type,
// for a non-finite float and for a result carrying Stats; b's contents
// are then unchanged.
func appendFrame(b []byte, v any) (_ []byte, ok bool) {
	e := wire.Enc{B: b}
	switch v := v.(type) {
	case *Frame:
		encFrame(&e, v)
	case *FrameResult:
		encFrameResult(&e, v)
	default:
		return b, false
	}
	if e.Bad {
		return b, false
	}
	return e.B, true
}

func encFrame(e *wire.Enc, v *Frame) {
	e.Raw(`{"id":`)
	e.Str(&v.ID)
	e.Raw(`,"ops":`)
	wire.EncList(e, v.Ops, encOp)
	e.Raw(`}`)
}

func encOp(e *wire.Enc, v *Op) {
	e.Raw(`{"op":`)
	e.Str(&v.Op)
	if v.Task != nil {
		e.Raw(`,"task":`)
		encTask(e, v.Task)
	}
	if v.TaskID != "" {
		e.Raw(`,"task_id":`)
		e.Str(&v.TaskID)
	}
	if v.Worker != nil {
		e.Raw(`,"worker":`)
		encWorker(e, v.Worker)
	}
	if v.WorkerID != "" {
		e.Raw(`,"worker_id":`)
		e.Str(&v.WorkerID)
	}
	if v.Trust != nil {
		e.Raw(`,"trust":`)
		e.Float(*v.Trust)
	}
	if v.Window != nil {
		e.Raw(`,"window":`)
		e.Int64(*v.Window)
	}
	if v.Span != nil {
		e.Raw(`,"span":{"t":`)
		e.Str(&v.Span.TraceID)
		e.Raw(`,"s":`)
		e.Str(&v.Span.SpanID)
		e.Raw(`}`)
	}
	e.Raw(`}`)
}

func encTask(e *wire.Enc, v *taskWire) {
	e.Raw(`{"id":`)
	e.Str(&v.ID)
	if v.Group != "" {
		e.Raw(`,"group":`)
		e.Str(&v.Group)
	}
	if v.Reward != 0 {
		e.Raw(`,"reward":`)
		e.Float(v.Reward)
	}
	e.Raw(`,"universe":`)
	e.Int(&v.Universe)
	e.Raw(`,"keywords":`)
	wire.EncList(e, v.Keywords, (*wire.Enc).Int)
	if v.Deadline != 0 {
		e.Raw(`,"deadline":`)
		e.Int64(v.Deadline)
	}
	e.Raw(`}`)
}

func encWorker(e *wire.Enc, v *workerWire) {
	e.Raw(`{"id":`)
	e.Str(&v.ID)
	e.Raw(`,"alpha":`)
	e.Float(v.Alpha)
	e.Raw(`,"beta":`)
	e.Float(v.Beta)
	e.Raw(`,"universe":`)
	e.Int(&v.Universe)
	e.Raw(`,"keywords":`)
	wire.EncList(e, v.Keywords, (*wire.Enc).Int)
	e.Raw(`}`)
}

func encFrameResult(e *wire.Enc, v *FrameResult) {
	e.Raw(`{"results":`)
	wire.EncList(e, v.Results, encOpResult)
	e.Raw(`}`)
}

func encOpResult(e *wire.Enc, v *OpResult) {
	if v.Stats != nil {
		e.Bad = true // shard.Stats stays with encoding/json
		return
	}
	e.Raw(`{"ok":`)
	e.Bool(v.OK)
	if v.Err != "" {
		e.Raw(`,"err":`)
		e.Str(&v.Err)
	}
	if v.Code != "" {
		e.Raw(`,"code":`)
		e.Str(&v.Code)
	}
	if v.Gain != 0 {
		e.Raw(`,"gain":`)
		e.Float(v.Gain)
	}
	if v.Rel != 0 {
		e.Raw(`,"rel":`)
		e.Float(v.Rel)
	}
	if v.Free {
		e.Raw(`,"free":true`)
	}
	if v.Backlog != 0 {
		e.Raw(`,"backlog":`)
		e.Int(&v.Backlog)
	}
	if v.WorkerID != "" {
		e.Raw(`,"worker_id":`)
		e.Str(&v.WorkerID)
	}
	if v.Next != nil {
		e.Raw(`,"next":`)
		encTask(e, v.Next)
	}
	if len(v.Tasks) > 0 {
		e.Raw(`,"tasks":`)
		wire.EncList(e, v.Tasks, encTask)
	}
	if v.Worker != nil {
		e.Raw(`,"worker":`)
		encWorker(e, v.Worker)
	}
	if v.Count != 0 {
		e.Raw(`,"count":`)
		e.Int(&v.Count)
	}
	if len(v.IDs) > 0 {
		e.Raw(`,"ids":`)
		wire.EncList(e, v.IDs, (*wire.Enc).Str)
	}
	if v.Value != 0 {
		e.Raw(`,"value":`)
		e.Float(v.Value)
	}
	if v.Until != 0 {
		e.Raw(`,"until":`)
		e.Int64(v.Until)
	}
	e.Raw(`}`)
}

// decodeFrame decodes the first JSON value of a request body into f, as
// the node's json.Decoder.Decode reads it: whatever follows the value is
// ignored. It reports whether data was in the strict subset; on false f
// is untouched. f must hold its zero value.
func decodeFrame(data []byte, f *Frame) bool {
	return wire.DecodeFirst(data, f, decFrame)
}

// decodeFrameResult decodes a whole response body into r, as the
// gateway's json.Unmarshal reads it: anything but whitespace after the
// value declines. On false r is untouched; r must hold its zero value.
func decodeFrameResult(data []byte, r *FrameResult) bool {
	return wire.Decode(data, r, decFrameResult)
}

func decFrame(d *wire.Dec, v *Frame) bool {
	return d.Object(func(k []byte) bool {
		switch string(k) {
		case "id":
			return d.Str(&v.ID)
		case "ops":
			return wire.DecList(d, &v.Ops, decOp)
		}
		return false
	})
}

func decOp(d *wire.Dec, v *Op) bool {
	return d.Object(func(k []byte) bool {
		switch string(k) {
		case "op":
			return d.Str(&v.Op)
		case "task":
			return wire.Ptr(d, &v.Task, decTask)
		case "task_id":
			return d.Str(&v.TaskID)
		case "worker":
			return wire.Ptr(d, &v.Worker, decWorker)
		case "worker_id":
			return d.Str(&v.WorkerID)
		case "trust":
			return wire.Ptr(d, &v.Trust, (*wire.Dec).Float)
		case "window":
			return wire.Ptr(d, &v.Window, (*wire.Dec).Int64)
		case "span":
			return wire.Ptr(d, &v.Span, decSpanRef)
		}
		return false
	})
}

func decSpanRef(d *wire.Dec, v *SpanRef) bool {
	return d.Object(func(k []byte) bool {
		switch string(k) {
		case "t":
			return d.Str(&v.TraceID)
		case "s":
			return d.Str(&v.SpanID)
		}
		return false
	})
}

func decTask(d *wire.Dec, v *taskWire) bool {
	return d.Object(func(k []byte) bool {
		switch string(k) {
		case "id":
			return d.Str(&v.ID)
		case "group":
			return d.Str(&v.Group)
		case "reward":
			return d.Float(&v.Reward)
		case "universe":
			return d.Int(&v.Universe)
		case "keywords":
			return wire.DecList(d, &v.Keywords, (*wire.Dec).Int)
		case "deadline":
			return d.Int64(&v.Deadline)
		}
		return false
	})
}

func decWorker(d *wire.Dec, v *workerWire) bool {
	return d.Object(func(k []byte) bool {
		switch string(k) {
		case "id":
			return d.Str(&v.ID)
		case "alpha":
			return d.Float(&v.Alpha)
		case "beta":
			return d.Float(&v.Beta)
		case "universe":
			return d.Int(&v.Universe)
		case "keywords":
			return wire.DecList(d, &v.Keywords, (*wire.Dec).Int)
		}
		return false
	})
}

func decFrameResult(d *wire.Dec, v *FrameResult) bool {
	return d.Object(func(k []byte) bool {
		return string(k) == "results" && wire.DecList(d, &v.Results, decOpResult)
	})
}

func decOpResult(d *wire.Dec, v *OpResult) bool {
	return d.Object(func(k []byte) bool {
		switch string(k) {
		case "ok":
			return d.Bool(&v.OK)
		case "err":
			return d.Str(&v.Err)
		case "code":
			return d.Str(&v.Code)
		case "gain":
			return d.Float(&v.Gain)
		case "rel":
			return d.Float(&v.Rel)
		case "free":
			return d.Bool(&v.Free)
		case "backlog":
			return d.Int(&v.Backlog)
		case "worker_id":
			return d.Str(&v.WorkerID)
		case "next":
			return wire.Ptr(d, &v.Next, decTask)
		case "tasks":
			return wire.DecList(d, &v.Tasks, decTask)
		case "worker":
			return wire.Ptr(d, &v.Worker, decWorker)
		case "count":
			return d.Int(&v.Count)
		case "ids":
			return wire.DecList(d, &v.IDs, (*wire.Dec).Str)
		case "value":
			return d.Float(&v.Value)
		case "until":
			return d.Int64(&v.Until)
		}
		return false // "stats" included: shard.Stats stays with encoding/json
	})
}
